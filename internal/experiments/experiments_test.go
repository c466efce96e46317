package experiments

import (
	"strings"
	"testing"

	"deepthermo/internal/mc"
)

// smallTestbed trains a reduced testbed once for the whole test package.
func smallTestbed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewTestbed(TestbedOptions{
		Cells:          2, // 16 atoms
		Seed:           5,
		SamplesPerTemp: 60,
		Epochs:         12,
		Latent:         4,
		Hidden:         32,
		LadderLen:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestEquiQuota(t *testing.T) {
	q := EquiQuota(54, 4)
	if q[0] != 14 || q[1] != 14 || q[2] != 13 || q[3] != 13 {
		t.Errorf("EquiQuota(54,4) = %v", q)
	}
	total := 0
	for _, v := range q {
		total += v
	}
	if total != 54 {
		t.Errorf("quota sums to %d", total)
	}
	q = EquiQuota(16, 4)
	for _, v := range q {
		if v != 4 {
			t.Errorf("EquiQuota(16,4) = %v", q)
		}
	}
}

func TestTestbedConstruction(t *testing.T) {
	tb := smallTestbed(t)
	if tb.Lat.NumSites() != 16 {
		t.Fatalf("sites = %d", tb.Lat.NumSites())
	}
	if tb.Dataset.Len() != 240 {
		t.Fatalf("dataset = %d", tb.Dataset.Len())
	}
	if len(tb.TrainStats) != 12 {
		t.Fatalf("epochs = %d", len(tb.TrainStats))
	}
	// Training must have improved reconstruction.
	if tb.TrainStats[11].Recon >= tb.TrainStats[0].Recon {
		t.Error("training did not reduce loss")
	}
}

func TestE1Acceptance(t *testing.T) {
	tb := smallTestbed(t)
	res, err := AcceptanceVsTemperature(tb, E1Options{
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
	tb := smallTestbed(t)
	res, err := WLConvergence(tb, E2Options{Stages: 4, Bins: 12})
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
	tb := smallTestbed(t)
	res, err := ShortRangeOrder(tb, E5Options{
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

func TestQuotaConfigComposition(t *testing.T) {
	tb := smallTestbed(t)
	cfg := QuotaConfig(tb.Quota, newTestSrc())
	counts := cfg.Counts(4)
	for sp := range tb.Quota {
		if counts[sp] != tb.Quota[sp] {
			t.Fatalf("composition %v vs quota %v", counts, tb.Quota)
		}
	}
}

func TestMixtureProposalBuilds(t *testing.T) {
	tb := smallTestbed(t)
	p := tb.NewMixtureProposal(1000, 0.2, mc.WalkPosterior, newTestSrc())
	if p.Name() != "mixture" {
		t.Errorf("proposal name %q", p.Name())
	}
}
