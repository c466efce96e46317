package mc

import (
	"math"
	"testing"
	"testing/quick"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// smallSystem returns an 8-site binary ordering model whose fixed-
// composition ensemble (70 states) can be enumerated exactly.
func smallSystem(t testing.TB) (*alloy.Model, *dos.Exact) {
	t.Helper()
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	exact, err := dos.EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, exact
}

// boltzmannEnergyMean returns ⟨E⟩ of the exact ensemble at temperature T.
func boltzmannEnergyMean(x *dos.Exact, tKelvin float64) float64 {
	beta := 1 / (alloy.KB * tKelvin)
	var z, ze float64
	for i, e := range x.E {
		w := x.Count[i] * math.Exp(-beta*(e-x.E[0]))
		z += w
		ze += w * e
	}
	return ze / z
}

// runCanonical samples ⟨E⟩ with the given proposal and compares to exact.
func runCanonical(t *testing.T, m *alloy.Model, exact *dos.Exact, prop Proposal, tKelvin float64, sweeps int, tol float64) {
	t.Helper()
	src := rng.New(1234)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	s := NewSampler(m, cfg, prop, src)
	n := len(cfg)
	beta := 1 / (alloy.KB * tKelvin)
	// Equilibrate.
	for i := 0; i < sweeps/5*n; i++ {
		s.StepCanonical(beta)
	}
	var sum float64
	var count int
	for i := 0; i < sweeps*n; i++ {
		s.StepCanonical(beta)
		if i%n == 0 {
			sum += s.E
			count++
		}
	}
	got := sum / float64(count)
	want := boltzmannEnergyMean(exact, tKelvin)
	if math.Abs(got-want) > tol {
		t.Errorf("%s at T=%g: ⟨E⟩ = %.4f, exact %.4f", prop.Name(), tKelvin, got, want)
	}
}

// TestSwapSamplesBoltzmann: the baseline swap proposal must reproduce the
// exact canonical mean energy — the fundamental detailed-balance test.
func TestSwapSamplesBoltzmann(t *testing.T) {
	m, exact := smallSystem(t)
	for _, T := range []float64{400, 1000, 4000} {
		runCanonical(t, m, exact, NewSwapProposal(m), T, 4000, 0.01)
	}
}

// TestKSwapSamplesBoltzmann: k-swap moves keep the exact canonical mean
// energy. The run is long enough that the seed-to-seed spread of ⟨E⟩ is a
// quarter of the bound: σ = 0.0024 (k=2) and 0.0025 (k=4) over 16 seeds at
// 24000 sweeps.
func TestKSwapSamplesBoltzmann(t *testing.T) {
	m, exact := smallSystem(t)
	for _, k := range []int{2, 4} {
		runCanonical(t, m, exact, NewKSwapProposal(m, k), 1000, 24000, 0.012)
	}
}

// TestGlobalProposalSamplesBoltzmann: the DL proposal (both modes, with an
// untrained VAE — correctness must not depend on training quality) must
// also reproduce exact canonical statistics. This is the strongest test of
// the MH correction: any error in the proposal density shows up as a
// biased ⟨E⟩.
func TestGlobalProposalSamplesBoltzmann(t *testing.T) {
	m, exact := smallSystem(t)
	vcfg := vae.Config{Sites: 8, Species: 2, Latent: 3, Hidden: 12, BetaKL: 1}
	for _, mode := range []GlobalMode{JumpPrior, WalkPosterior} {
		model, err := vae.New(vcfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		prop := NewGlobalProposal(model, m, []int{4, 4}, CondForT(1000))
		prop.SetMode(mode)
		runCanonical(t, m, exact, prop, 1000, 3000, 0.015)
	}
}

// TestMixtureSamplesBoltzmann: a swap+DL mixture must stay exact.
func TestMixtureSamplesBoltzmann(t *testing.T) {
	m, exact := smallSystem(t)
	vcfg := vae.Config{Sites: 8, Species: 2, Latent: 3, Hidden: 12, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	mix := NewMixture(
		[]Proposal{NewSwapProposal(m), NewGlobalProposal(model, m, []int{4, 4}, CondForT(800))},
		[]float64{0.8, 0.2},
	)
	runCanonical(t, m, exact, mix, 800, 3000, 0.015)
}

// TestProposalRevert: for every proposal, Propose followed by Reject must
// restore the configuration exactly, and the reported ΔE must match a full
// energy recomputation of the proposed state.
func TestProposalRevert(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	m := alloy.NbMoTaW(lat)
	quota := []int{14, 14, 13, 13}
	vcfg := vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	props := []Proposal{
		NewSwapProposal(m),
		NewKSwapProposal(m, 5),
		NewGlobalProposal(model, m, quota, 0.5),
	}
	src := rng.New(10)
	cfg := make(lattice.Config, 0, 54)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })

	for _, p := range props {
		for trial := 0; trial < 30; trial++ {
			before := cfg.Clone()
			e0 := m.Energy(cfg)
			dE, _ := p.Propose(cfg, e0, src)
			if math.Abs(m.Energy(cfg)-(e0+dE)) > 1e-9 {
				t.Fatalf("%s: ΔE inconsistent with recomputed energy", p.Name())
			}
			p.Reject(cfg)
			for i := range cfg {
				if cfg[i] != before[i] {
					t.Fatalf("%s: Reject did not restore configuration", p.Name())
				}
			}
		}
	}
}

// TestGlobalProposalPreservesComposition: every accepted or rejected DL
// move must keep the configuration exactly on quota.
func TestGlobalProposalPreservesComposition(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 2, 2, 2)
	m := alloy.NbMoTaW(lat)
	quota := []int{4, 4, 4, 4}
	vcfg := vae.Config{Sites: 16, Species: 4, Latent: 3, Hidden: 12, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(12)
	cfg := make(lattice.Config, 0, 16)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	prop := NewGlobalProposal(model, m, quota, 0.3)
	s := NewSampler(m, cfg, prop, src)
	for i := 0; i < 200; i++ {
		s.StepCanonical(1 / (alloy.KB * 1200))
		counts := s.Cfg.Counts(4)
		for sp := range quota {
			if counts[sp] != quota[sp] {
				t.Fatalf("step %d: composition drifted to %v", i, counts)
			}
		}
	}
}

// TestChainEnergyExact: a sampler's incrementally maintained energy is the
// energy of its configuration bit for bit, with nothing to resync, over
// 10⁶ steps: swaps and k-swaps on both 54-site presets, and a swap + DL
// mixture on the 8-site binary model (the DL half also shows that its
// reused scratch buffers leak nothing between moves).
func TestChainEnergyExact(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	run := func(t *testing.T, m *alloy.Model, prop Proposal, src *rng.Source, tKelvin float64, steps int) {
		s := NewSampler(m, lattice.EquiatomicConfig(m.Lattice(), m.NumSpecies(), src), prop, src)
		beta := 1 / (alloy.KB * tKelvin)
		for i := 1; i <= steps; i++ {
			s.StepCanonical(beta)
			if i%1000 == 0 || i == steps {
				if exact := s.Model.Energy(s.Cfg); s.E != exact {
					t.Fatalf("step %d: incremental E = %v (%#x), Energy(cfg) = %v (%#x)",
						i, s.E, math.Float64bits(s.E), exact, math.Float64bits(exact))
				}
			}
		}
		if s.Accepted < int64(steps)/20 {
			t.Fatalf("only %d of %d moves accepted", s.Accepted, steps)
		}
	}
	t.Run("swap", func(t *testing.T) {
		m := alloy.NbMoTaW(lat)
		run(t, m, NewSwapProposal(m), rng.New(13), 1500, 400_000)
	})
	t.Run("kswap", func(t *testing.T) {
		m := alloy.MoNbTaVW(lat)
		run(t, m, NewKSwapProposal(m, 3), rng.New(14), 3000, 300_000)
	})
	t.Run("mixture", func(t *testing.T) {
		m := alloy.BinaryOrdering(lattice.MustNew(lattice.SC, 2, 2, 2), 0.05)
		model, err := vae.New(vae.Config{Sites: 8, Species: 2, Latent: 2, Hidden: 8, BetaKL: 1}, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		mix := NewMixture([]Proposal{NewSwapProposal(m), NewGlobalProposal(model, m, []int{4, 4}, CondForT(1500))}, []float64{0.5, 0.5})
		run(t, m, mix, rng.New(32), 1500, 300_000)
	})
}

func TestAcceptanceCounters(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	src := rng.New(14)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	s := NewSampler(m, cfg, NewSwapProposal(m), src)
	if s.AcceptanceRate() != 0 {
		t.Error("fresh sampler acceptance not 0")
	}
	for i := 0; i < 100; i++ {
		s.StepCanonical(1 / (alloy.KB * 5000))
	}
	if s.Proposed != 100 {
		t.Errorf("Proposed = %d", s.Proposed)
	}
	if r := s.AcceptanceRate(); r <= 0.3 {
		t.Errorf("hot-system swap acceptance %g suspiciously low", r)
	}
	s.ResetCounters()
	if s.Proposed != 0 || s.Accepted != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestSweepAndAnneal(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	src := rng.New(15)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	s := NewSampler(m, cfg, NewSwapProposal(m), src)
	s.Sweep(1000)
	if s.Proposed != int64(len(s.Cfg)) {
		t.Errorf("Sweep proposed %d, want %d", s.Proposed, len(s.Cfg))
	}
	// Annealing to low temperature should reach the ground state of this
	// tiny system (B2, E = −j·bonds = −0.05·24... shell-1 SC has 8·6/2=24 bonds).
	s.Anneal([]float64{2000, 1000, 500, 200, 80, 30}, 50)
	want := -0.05 * float64(m.BondCount(0))
	if s.E > want+0.05*3 { // within a few bond energies of the ground state
		t.Errorf("annealed energy %g far from ground state %g", s.E, want)
	}
}

func TestSettleUniform(t *testing.T) {
	// A flat ensemble must accept every swap (ΔlogW = 0 and symmetric q).
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	src := rng.New(16)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	s := NewSampler(m, cfg, NewSwapProposal(m), src)
	for i := 0; i < 50; i++ {
		dE, lqr := s.Propose()
		if !s.Settle(dE, lqr) {
			t.Fatal("flat ensemble rejected a symmetric move")
		}
	}
}

// TestSettleForbiddenDrawsUniform checks that a forbidden candidate
// (log acceptance −Inf) is rejected, restores the configuration, and still
// consumes the uniform a finite ratio would: the random stream does not
// depend on whether the candidate was allowed.
func TestSettleForbiddenDrawsUniform(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	run := func(logA float64) (rng.State, lattice.Config, bool) {
		src := rng.New(17)
		s := NewSampler(m, lattice.EquiatomicConfig(lat, 2, src), NewSwapProposal(m), src)
		before := s.Cfg.Clone()
		e := s.E
		dE, _ := s.Propose()
		acc := s.Settle(dE, logA)
		if !acc && (s.E != e || string(s.Cfg) != string(before)) {
			t.Fatalf("logA %v: rejected move left E %v (was %v) or changed the configuration", logA, s.E, e)
		}
		return src.State(), s.Cfg, acc
	}
	forbidden, _, acc := run(math.Inf(-1))
	if acc {
		t.Fatal("forbidden candidate accepted")
	}
	if _, _, acc := run(math.NaN()); acc {
		t.Fatal("NaN log acceptance accepted")
	}
	if finite, _, _ := run(-1e9); finite != forbidden {
		t.Fatal("a forbidden candidate drew a different number of uniforms than a finite rejection")
	}
}

func TestMixtureValidation(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	for name, fn := range map[string]func(){
		"empty":    func() { NewMixture(nil, nil) },
		"mismatch": func() { NewMixture([]Proposal{NewSwapProposal(m)}, []float64{1, 2}) },
		"negative": func() { NewMixture([]Proposal{NewSwapProposal(m)}, []float64{-1}) },
		"zero-sum": func() { NewMixture([]Proposal{NewSwapProposal(m)}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mixture did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKSwapMinimumK(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	p := NewKSwapProposal(m, 0)
	if p.K != 1 {
		t.Errorf("K = %d, want clamped 1", p.K)
	}
}

func TestCondForT(t *testing.T) {
	if CondForT(2000) != 1 || CondForT(500) != 0.25 {
		t.Error("CondForT scaling wrong")
	}
}

func TestGlobalModeString(t *testing.T) {
	if JumpPrior.String() != "jump-prior" || WalkPosterior.String() != "walk-posterior" {
		t.Error("mode names wrong")
	}
}

// TestSwapProposalSymmetric uses quick to confirm swaps always report a
// zero proposal-density correction.
func TestSwapProposalSymmetric(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 2, 2, 2)
	m := alloy.NbMoTaW(lat)
	src := rng.New(17)
	cfg := lattice.EquiatomicConfig(lat, 4, src)
	p := NewSwapProposal(m)
	err := quick.Check(func(uint8) bool {
		_, lqr := p.Propose(cfg, m.Energy(cfg), src)
		p.Reject(cfg)
		return lqr == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlobalProposalHammingTracking(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.02)
	vcfg := vae.Config{Sites: 8, Species: 2, Latent: 2, Hidden: 8, BetaKL: 1}
	model, _ := vae.New(vcfg, rng.New(18))
	prop := NewGlobalProposal(model, m, []int{4, 4}, 0.5)
	src := rng.New(19)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	s := NewSampler(m, cfg, prop, src)
	for i := 0; i < 300; i++ {
		s.StepCanonical(1 / (alloy.KB * 5000))
	}
	if s.Accepted > 0 && prop.AcceptedSiteChanges() == 0 {
		t.Error("accepted global moves but no site changes recorded")
	}
	if prop.AcceptedSiteChanges() > int64(8*s.Accepted) {
		t.Error("site changes exceed sites × accepted moves")
	}
}

func BenchmarkStepCanonicalSwap(b *testing.B) {
	lat := lattice.MustNew(lattice.BCC, 8, 8, 8)
	m := NewSwapProposal(alloy.NbMoTaW(lat))
	src := rng.New(1)
	cfg := lattice.EquiatomicConfig(lat, 4, src)
	s := NewSampler(m.m, cfg, m, src)
	beta := 1 / (alloy.KB * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepCanonical(beta)
	}
}
