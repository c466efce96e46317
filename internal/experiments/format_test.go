package experiments

import (
	"strings"
	"testing"

	"deepthermo/internal/thermo"
	"deepthermo/internal/wanglandau"
	"deepthermo/internal/workload"
)

// Format smoke tests over constructed results: every report renderer must
// produce its banner and one row without panicking, independent of the
// expensive experiment runs.

func TestFormatRenderers(t *testing.T) {
	cases := []struct {
		id  string
		out string
	}{
		{"E1", (&E1Result{Sites: 54, KSwap: 13, Rows: []E1Row{{T: 300, Swap: 0.1, DLWalk: 0.2}}}).Format()},
		{"E2", (&E2Result{Window: wanglandau.Window{EMin: -1, EMax: 0, Bins: 10}, Speedup: 2, Rows: []E2Row{{Stage: 0, LnF: 1, SwapSweeps: 10, MixSweeps: 5}}}).Format()},
		{"E3", (&E3Result{PaperSites: 8192, PaperLogStates: 11343, Rows: []E3Row{{Sites: 16, Bins: 4, MeasuredSpan: 12, LogStates: 18, Converged: true}}}).Format()},
		{"E4", (&E4Result{Sites: 16, Tc: 600, CvPeak: 0.001, Points: []thermo.Point{{T: 300, U: -1, Cv: 0.001, F: -2, S: 0.001}}}).Format()},
		{"E5", (&E5Result{Sites: 54, OnsetT: 600, Rows: []E5Row{{T: 300, AlphaMoTa: -1, EtaB2: 0.9}}}).Format()},
		{"A6", (&A6Result{Speedup: 2, Rows: []A6Row{{Policy: "scheduled", Sweeps: 100, Bins: 24}}}).Format()},
	}
	for _, c := range cases {
		if !strings.Contains(c.out, c.id) {
			t.Errorf("%s: banner missing in %q", c.id, c.out[:min(len(c.out), 60)])
		}
		if strings.Count(c.out, "\n") < 2 {
			t.Errorf("%s: no rows rendered", c.id)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestE2WindowValidation(t *testing.T) {
	// A missing or empty dataset must yield an error, not an index panic.
	if _, err := e2Window(nil, 0.5); err == nil {
		t.Fatal("missing dataset accepted")
	}
	if _, err := e2Window(&workload.Dataset{}, 0.5); err == nil {
		t.Fatal("empty dataset accepted")
	}
}
