package deepthermo

import (
	"math"
	"testing"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Cells: 2, Seed: 3, Latent: 4, Hidden: 24})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Lat.NumSites() != 54 {
		t.Errorf("default sites = %d, want 54", sys.Lat.NumSites())
	}
	total := 0
	for _, q := range sys.Quota {
		total += q
	}
	if total != 54 {
		t.Errorf("quota sums to %d", total)
	}
}

func TestQuinaryPreset(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Cells: 2, Seed: 4, Alloy: "MoNbTaVW"})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ham.NumSpecies() != 5 {
		t.Fatalf("species = %d", sys.Ham.NumSpecies())
	}
	total := 0
	for _, q := range sys.Quota {
		total += q
	}
	if total != 16 || len(sys.Quota) != 5 {
		t.Fatalf("quota %v", sys.Quota)
	}
	// Sampling works out of the box.
	s := sys.NewSampler(SamplerConfig{Seed: 5})
	for i := 0; i < 50; i++ {
		s.Sweep(800)
	}
	if s.Proposed == 0 {
		t.Fatal("no proposals")
	}
	if _, err := NewSystem(SystemConfig{Alloy: "unobtainium"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestGenerateDataDefaultsAndOverrides(t *testing.T) {
	sys := newTestSystem(t)
	ds, err := sys.GenerateData(&DataConfig{SamplesPerTemp: 20, LadderLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 60 {
		t.Errorf("dataset = %d, want 60", ds.Len())
	}
	if sys.Dataset() != ds {
		t.Error("Dataset() is not the generated training set")
	}
	// Every sample honors the fixed composition.
	for _, cfg := range ds.Configs {
		counts := cfg.Counts(4)
		for sp, q := range sys.Quota {
			if counts[sp] != q {
				t.Fatalf("composition %v vs quota %v", counts, sys.Quota)
			}
		}
	}
}

func TestTrainProposalAutogeneratesData(t *testing.T) {
	sys := newTestSystem(t)
	err := sys.TrainProposal(&TrainOptions{Epochs: 2, BatchSize: 32, LR: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model == nil {
		t.Fatal("no model after training")
	}
	if sys.Dataset() == nil {
		t.Fatal("training did not generate data")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.GenerateData(&DataConfig{SamplesPerTemp: 40, LadderLen: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainProposal(&TrainOptions{Epochs: 6, BatchSize: 32, LR: 2e-3, Seed: 5, KLWarmupEpochs: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SampleDOS(DOSConfig{Windows: 3, Bins: 20, LnFFinal: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("DOS did not converge")
	}
	if res.DOS.Span() <= 0 {
		t.Fatal("empty DOS")
	}
	pts, err := sys.Thermodynamics(res.DOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc, cvPeak, err := TransitionTemperature(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tc <= 0 || cvPeak <= 0 {
		t.Errorf("Tc = %g, peak = %g", tc, cvPeak)
	}
	// Entropy at the hottest point must approach ideal mixing from below.
	n := float64(sys.Lat.NumSites())
	last := pts[len(pts)-1]
	sPerSite := last.S / n / KB
	if sPerSite > math.Log(4)+1e-6 {
		t.Errorf("entropy %g kB/site exceeds ideal mixing ln 4", sPerSite)
	}
	if sPerSite < 0.8 {
		t.Errorf("entropy %g kB/site implausibly low at high T", sPerSite)
	}
}

func TestSampleDOSNoDLWithoutModel(t *testing.T) {
	sys := newTestSystem(t)
	// No trained model: SampleDOS must fall back to the swap baseline.
	res, err := sys.SampleDOS(DOSConfig{Windows: 2, Bins: 16, LnFFinal: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DOS == nil {
		t.Fatal("no DOS")
	}
}

func TestThermodynamicsNilDOS(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.Thermodynamics(nil, nil); err == nil {
		t.Error("nil DOS accepted")
	}
}

func TestNewSamplerSwapOnly(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.NewSampler(SamplerConfig{Seed: 9})
	before := s.E
	for i := 0; i < 200; i++ {
		s.Sweep(300)
	}
	if s.E >= before {
		t.Errorf("300K sampling did not lower the energy (%g → %g)", before, s.E)
	}
	// Composition preserved.
	counts := s.Cfg.Counts(4)
	for sp, q := range sys.Quota {
		if counts[sp] != q {
			t.Fatalf("composition drifted: %v", counts)
		}
	}
}

func TestNewSamplerWithDL(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.TrainProposal(&TrainOptions{Epochs: 3, BatchSize: 32, LR: 2e-3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	s := sys.NewSampler(SamplerConfig{Seed: 9, DLWeight: 0.3, CondT: 800})
	for i := 0; i < 50; i++ {
		s.Sweep(800)
	}
	if s.Proposed == 0 {
		t.Fatal("sampler did not propose")
	}
	counts := s.Cfg.Counts(4)
	for sp, q := range sys.Quota {
		if counts[sp] != q {
			t.Fatalf("composition drifted with DL moves: %v", counts)
		}
	}
}

func TestWarrenCowleyFacade(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.NewSampler(SamplerConfig{Seed: 13})
	for i := 0; i < 300; i++ {
		s.Sweep(200)
	}
	alpha := WarrenCowley(sys.Lat, s.Cfg, 0, 4)
	// Mo-Ta must order at low temperature.
	if alpha[1][2] >= 0 {
		t.Errorf("α(Mo-Ta) = %g at 200K, want negative (ordering)", alpha[1][2])
	}
}
