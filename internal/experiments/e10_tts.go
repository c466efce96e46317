package experiments

import (
	"fmt"
	"strings"

	"deepthermo/internal/hpcsim"
)

// E10Options configures the end-to-end time-to-solution composition.
type E10Options struct {
	Devices    int     // default 3072
	Sites      int     // default 8192
	WalkersPer int     // default 2
	WinBins    int     // default 200
	BaseSweeps float64 // conventional REWL sweeps to convergence (default 5e8)
	Speedup    float64 // measured E2 sweep reduction (required, >0)
	TrainSteps int     // DL training steps amortized into the run (default 20000)
	Seed       uint64
}

// E10Row is one machine × method estimate.
type E10Row struct {
	Machine string
	Method  string
	Hours   float64
	Sample  float64
	Train   float64
}

// E10Result is the composite time-to-solution table (reconstructed Table
// E10): the measured algorithmic speedup from E2 applied at the modeled
// 3,072-device scale of both machines.
type E10Result struct {
	Devices int
	Speedup float64
	Rows    []E10Row
}

// TimeToSolution composes the measured WL convergence speedup with the
// machine model into wall-clock estimates for conventional REWL vs
// DeepThermo.
func TimeToSolution(opts E10Options) (*E10Result, error) {
	if opts.Devices == 0 {
		opts.Devices = 3072
	}
	if opts.Sites == 0 {
		opts.Sites = 8192
	}
	if opts.WalkersPer == 0 {
		opts.WalkersPer = 2
	}
	if opts.WinBins == 0 {
		opts.WinBins = 200
	}
	if opts.BaseSweeps == 0 {
		// Conventional flat-histogram convergence at the 8192-atom scale
		// needs O(10⁸) sweeps per walker — the wall DeepThermo attacks.
		opts.BaseSweeps = 5e8
	}
	if opts.TrainSteps == 0 {
		opts.TrainSteps = 20000
	}
	if opts.Seed == 0 {
		opts.Seed = 101
	}
	if opts.Speedup <= 0 {
		return nil, fmt.Errorf("experiments: E10 requires the measured E2 speedup")
	}

	w := hpcsim.DefaultWorkload(opts.Sites, VAEModelForSites(opts.Sites))
	res := &E10Result{Devices: opts.Devices, Speedup: opts.Speedup}
	for _, m := range []hpcsim.Machine{hpcsim.Summit, hpcsim.Crusher} {
		// Conventional: no DL proposals (and no decoder cost in sweeps),
		// full sweep count, no training.
		conv := w
		conv.DLEveryNSteps = 0
		base := hpcsim.EstimateTimeToSolution(m, conv, opts.Devices, opts.WalkersPer, opts.WinBins, opts.BaseSweeps, 0, opts.Seed)
		res.Rows = append(res.Rows, E10Row{
			Machine: m.Name, Method: "conventional REWL",
			Hours:  base.TotalSeconds / 3600,
			Sample: base.SampleSeconds / 3600,
		})
		// DeepThermo: sweeps reduced by the measured speedup, decoder cost
		// included, plus amortized training.
		dt := hpcsim.EstimateTimeToSolution(m, w, opts.Devices, opts.WalkersPer, opts.WinBins, opts.BaseSweeps/opts.Speedup, opts.TrainSteps, opts.Seed)
		res.Rows = append(res.Rows, E10Row{
			Machine: m.Name, Method: "DeepThermo",
			Hours:  dt.TotalSeconds / 3600,
			Sample: dt.SampleSeconds / 3600,
			Train:  dt.TrainSeconds / 3600,
		})
	}
	return res, nil
}

// Format renders the E10 table.
func (r *E10Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("E10", fmt.Sprintf("end-to-end time to converged DOS at %d devices (measured E2 speedup %.2fx)", r.Devices, r.Speedup)))
	fmt.Fprintf(&b, "%-22s %-20s %12s %12s %12s\n", "machine", "method", "total (h)", "sample (h)", "train (h)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-20s %12.2f %12.2f %12.2f\n", row.Machine, row.Method, row.Hours, row.Sample, row.Train)
	}
	return b.String()
}
