package wanglandau

import (
	"math"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

func smallSystem(t testing.TB) (*alloy.Model, *dos.LogDOS) {
	t.Helper()
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	exact, err := dos.EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := exact.ToLogDOS(0.025)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestWLConvergesToExactDOS is the core validation: the WL estimate must
// match exact enumeration to a few percent RMS in ln g. Experiment E11
// (rewl's TestE11Validation) repeats it on three systems, with REWL too.
func TestWLConvergesToExactDOS(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(1)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if !res.Converged {
		t.Fatal("WL hit the safety cutoff")
	}
	rms, n, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("only %d bins compared", n)
	}
	if rms > 0.15 {
		t.Errorf("WL RMS ln g error %g too large", rms)
	}
}

func TestWLStagesHalveLnF(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(2)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	for i, st := range res.Stages {
		want := 1.0 / math.Pow(2, float64(i))
		if math.Abs(st.LnF-want) > 1e-12 {
			t.Fatalf("stage %d ln f = %g, want %g", i, st.LnF, want)
		}
		if st.Sweeps <= 0 {
			t.Fatalf("stage %d has %d sweeps", i, st.Sweeps)
		}
	}
	if w.LnF() >= 1e-3 {
		t.Error("walker not converged")
	}
	if !w.Converged() {
		t.Error("Converged() false after run")
	}
}

func TestWalkerRejectsOutOfWindowStart(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(3)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	// A window far above any reachable energy.
	_, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMax() + 10, EMax: exact.EMax() + 11, Bins: 4}, Options{})
	if err == nil {
		t.Fatal("out-of-window start accepted")
	}
}

// TestWalkerStaysInWindow: the walker's energy must never leave its window.
func TestWalkerStaysInWindow(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(4)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	// Restrict to the lower half of the spectrum.
	win := Window{EMin: exact.EMin, EMax: exact.EMin + (exact.EMax()-exact.EMin)/2, Bins: exact.Bins() / 2}
	e, err := PrepareInWindow(m, cfg, win, src, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e < win.EMin || e >= win.EMax {
		t.Fatalf("PrepareInWindow left energy at %g", e)
	}
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src, win, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.Sweep()
		if w.Energy() < win.EMin || w.Energy() >= win.EMax {
			t.Fatalf("walker escaped window: E = %g", w.Energy())
		}
	}
	if w.Sweeps() != 200 {
		t.Errorf("Sweeps = %d", w.Sweeps())
	}
}

func TestPrepareInWindowFailsGracefully(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(5)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	win := Window{EMin: exact.EMax() + 100, EMax: exact.EMax() + 101, Bins: 4}
	if _, err := PrepareInWindow(m, cfg, win, src, 5); err == nil {
		t.Fatal("unreachable window reported success")
	}
}

// TestPrepareInWindowAgreesWithNewWalker: a window whose lower edge is an
// exact energy level of the model. Configurations of that level evaluate
// to energies an ulp apart depending on summation order, so the energy
// PrepareInWindow tracks incrementally can read "inside" while the energy
// NewWalker recomputes reads "outside". Whatever PrepareInWindow accepts,
// NewWalker must accept too.
func TestPrepareInWindowAgreesWithNewWalker(t *testing.T) {
	m, _ := smallSystem(t)
	const level = -0.8 // second level of the 8-site spectrum {-1.2, -0.8, -0.6, -0.4}
	win := Window{EMin: level, EMax: level + 0.3, Bins: 4}
	for seed := uint64(1); seed <= 60; seed++ {
		src := rng.New(seed)
		cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
		if _, err := PrepareInWindow(m, cfg, win, src, 2000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src, win, Options{}); err != nil {
			t.Fatalf("seed %d: PrepareInWindow accepted a configuration NewWalker rejects: %v", seed, err)
		}
	}
}

func TestMaxSweepsCutoff(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(6)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 1e-30, MaxTotalSweeps: 100, MaxSweepsPerStage: 50})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Converged {
		t.Error("impossible convergence reported")
	}
	if res.TotalSweeps > 200 {
		t.Errorf("cutoff ignored: %d sweeps", res.TotalSweeps)
	}
}

func TestWLWithDLProposalStaysExact(t *testing.T) {
	// Wang-Landau driven by a mixture with the (untrained) DL proposal
	// must converge to the same exact DOS: acceptance rule and proposal
	// correction compose.
	m, exact := smallSystem(t)
	src := rng.New(7)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)

	// Import cycle avoidance: build the DL proposal inline via mc helpers.
	prop := newTestDLMixture(t, m, src)
	w, err := NewWalker(m, cfg, prop, src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if !res.Converged {
		t.Fatal("WL with DL mixture did not converge")
	}
	rms, _, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.2 {
		t.Errorf("WL+DL RMS error %g", rms)
	}
}

// TestOneOverTConvergesToExactDOS: the 1/t schedule must reach the same
// exact DOS as the halving schedule (ablation A4, recorded in
// EXPERIMENTS.md).
func TestOneOverTConvergesToExactDOS(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(21)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 5e-5, OneOverT: true})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if !res.Converged {
		t.Fatal("1/t WL did not converge")
	}
	rms, _, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.15 {
		t.Errorf("1/t WL RMS error %g", rms)
	}
	if w.LnF() >= 5e-5 {
		t.Error("final ln f not below target")
	}
}

// TestMinCoverageGatesFlatness is the regression test for the coverage
// gate: the historical criterion evaluates flatness over visited bins
// only, so a walker that has evenly visited just two bins of a wide
// window counts as flat and ends its stage. With MinCoverage set, the
// stage cannot end until the walker has covered the requested fraction of
// the window; with the zero default, the historical behavior is preserved
// bit for bit.
func TestMinCoverageGatesFlatness(t *testing.T) {
	m, exact := smallSystem(t)
	mk := func(opts Options) *Walker {
		src := rng.New(6)
		cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
		w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
			Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: 20}, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Sculpt a walker that has seen exactly two bins, evenly.
		for i := range w.hist {
			w.hist[i] = 0
			w.visited[i] = false
		}
		w.hist[0], w.hist[1] = 100, 100
		w.visited[0], w.visited[1] = true, true
		return w
	}
	if w := mk(Options{}); !w.Flat() {
		t.Error("historical criterion: two evenly visited bins must count as flat")
	}
	if w := mk(Options{MinCoverage: 0.25}); w.Flat() {
		t.Error("gated criterion: 2/20 bins covered must not count as flat")
	}
	// The gate opens exactly at the coverage threshold (5 of 20 bins).
	w := mk(Options{MinCoverage: 0.25})
	for i := 2; i < 5; i++ {
		w.hist[i] = 100
		w.visited[i] = true
	}
	if !w.Flat() {
		t.Error("gated criterion: 5/20 bins at the threshold must count as flat")
	}
	if c := w.Coverage(); math.Abs(c-0.25) > 1e-12 {
		t.Errorf("Coverage() = %g, want 0.25", c)
	}
	if fr := w.FlatnessRatio(); math.Abs(fr-1) > 1e-12 {
		t.Errorf("FlatnessRatio() = %g for a perfectly even histogram", fr)
	}
}

func TestStageStatAcceptRateBounded(t *testing.T) {
	m, exact := smallSystem(t)
	src := rng.New(8)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src,
		Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()},
		Options{LnFFinal: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	for _, st := range res.Stages {
		if st.AcceptRate < 0 || st.AcceptRate > 1 {
			t.Fatalf("acceptance rate %g out of range", st.AcceptRate)
		}
	}
}
