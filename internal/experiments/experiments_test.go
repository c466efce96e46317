package experiments

import (
	"strings"
	"sync"
	"testing"

	"deepthermo"
	"deepthermo/internal/mc"
)

// smallSystem is a reduced report system (16 sites, 240 training samples,
// 12 epochs), trained once for the whole test package.
var smallSystem = sync.OnceValues(func() (*deepthermo.System, error) {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2, Seed: 5, Latent: 4, Hidden: 32})
	if err != nil {
		return nil, err
	}
	if _, err := sys.GenerateData(&deepthermo.DataConfig{TempLo: 250, TempHi: 3000, LadderLen: 4, SamplesPerTemp: 60}); err != nil {
		return nil, err
	}
	return sys, sys.TrainProposal(&deepthermo.TrainOptions{Epochs: 12, BatchSize: 32, LR: 2e-3, Seed: 5 + 17, KLWarmupEpochs: 4})
})

func trained(t *testing.T) *deepthermo.System {
	t.Helper()
	sys, err := smallSystem()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestE1Acceptance(t *testing.T) {
	sys := trained(t)
	res, err := AcceptanceVsTemperature(sys, E1Options{
		Temps:       []float64{400, 2000},
		StepsPerT:   150,
		EquilSweeps: 80,
		IncludeJump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		for name, v := range map[string]float64{
			"swap": row.Swap, "kswap": row.KSwap, "dlwalk": row.DLWalk, "dljump": row.DLJump,
		} {
			if v < 0 || v > 1 {
				t.Errorf("T=%g %s acceptance %g out of range", row.T, name, v)
			}
		}
	}
	// Local swap acceptance grows with temperature.
	if res.Rows[1].Swap <= res.Rows[0].Swap {
		t.Error("swap acceptance not increasing with T")
	}
	if !strings.Contains(res.Format(), "E1") {
		t.Error("format missing banner")
	}
}

func TestE2Convergence(t *testing.T) {
	sys := trained(t)
	res, err := WLConvergence(sys, E2Options{Stages: 4, Bins: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d stages", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.SwapSweeps <= 0 || row.MixSweeps <= 0 {
			t.Fatalf("stage %d has zero sweeps", i)
		}
	}
	if res.Speedup <= 0 {
		t.Error("no speedup computed")
	}
	if !strings.Contains(res.Format(), "speedup") {
		t.Error("format missing speedup")
	}
}

func TestE3AndE4(t *testing.T) {
	res, err := DOSRange(E3Options{
		CellSizes: []int{2},
		Windows:   2,
		Bins:      20,
		LnFFinal:  1e-3,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Sites != 16 {
		t.Errorf("sites = %d", row.Sites)
	}
	if row.MeasuredSpan <= 0 {
		t.Error("no DOS span measured")
	}
	// ln(16!/(4!)⁴) = ln(63,063,000) ≈ 18.0.
	if row.LogStates < 17 || row.LogStates > 19 {
		t.Errorf("ln states = %g", row.LogStates)
	}
	// The paper-scale extrapolation is the e^10,000 claim.
	if res.PaperLogStates < 10000 {
		t.Errorf("paper-scale ln states = %g, want > 10000", res.PaperLogStates)
	}
	if !strings.Contains(res.Format(), "e^10,000") {
		t.Error("format missing headline claim")
	}

	// E4 from the merged DOS.
	e4, err := Thermodynamics(res.LargestDOS, row.Sites, res.LargestQuota, E4Options{Points: 12})
	if err != nil {
		t.Fatal(err)
	}
	if e4.Tc <= 0 || e4.CvPeak <= 0 {
		t.Errorf("Tc = %g, Cv peak = %g", e4.Tc, e4.CvPeak)
	}
	if len(e4.Points) != 12 {
		t.Fatalf("%d curve points", len(e4.Points))
	}
	// Entropy per site at the hottest point approaches (from below) the
	// ideal mixing value ln 4 ≈ 1.386 kB.
	last := e4.Points[len(e4.Points)-1]
	sPerSite := last.S / float64(row.Sites) / 8.617333262e-5
	if sPerSite < 0.8 || sPerSite > 1.45 {
		t.Errorf("high-T entropy %g kB/site implausible", sPerSite)
	}
	if !strings.Contains(e4.Format(), "Tc") {
		t.Error("E4 format missing transition")
	}
}

func TestE5ShortRangeOrder(t *testing.T) {
	sys := trained(t)
	res, err := ShortRangeOrder(sys, E5Options{
		Temps:       []float64{300, 1000, 3000},
		EquilSweeps: 150,
		MeasSweeps:  60,
		Samples:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	cold, hot := res.Rows[0], res.Rows[2]
	// Mo-Ta orders: α more negative cold than hot.
	if cold.AlphaMoTa >= hot.AlphaMoTa {
		t.Errorf("α_MoTa cold %g not below hot %g", cold.AlphaMoTa, hot.AlphaMoTa)
	}
	// Energy rises with temperature.
	if cold.EnergyPerSite >= hot.EnergyPerSite {
		t.Errorf("energy ordering wrong: %g vs %g", cold.EnergyPerSite, hot.EnergyPerSite)
	}
	if res.OnsetT <= 0 {
		t.Error("no onset temperature")
	}
}

func TestMixtureProposalBuilds(t *testing.T) {
	sys := trained(t)
	p := newMixtureProposal(sys, 1000, 0.2, mc.WalkPosterior, newTestSrc())
	if p.Name() != "mixture" {
		t.Errorf("proposal name %q", p.Name())
	}
}
