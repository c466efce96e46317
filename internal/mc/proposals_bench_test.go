package mc

import (
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// benchGlobalSampler builds the pinned 54-site DL-proposal walker used by
// the hot-path benchmarks and the zero-allocation gate (seeds match the
// golden-trace chains so the work measured here is the work the regression
// tests pin).
func benchGlobalSampler(b testing.TB, mode GlobalMode) *Sampler {
	b.Helper()
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	m := alloy.NbMoTaW(lat)
	quota := []int{14, 14, 13, 13}
	vcfg := vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(101))
	if err != nil {
		b.Fatal(err)
	}
	prop := NewGlobalProposal(model, m, quota, CondForT(1200))
	prop.SetMode(mode)
	src := rng.New(202)
	cfg := make(lattice.Config, 0, 54)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return NewSampler(m, cfg, prop, src)
}

// BenchmarkGlobalPropose measures one full DL-proposal Metropolis step
// (encode, decode, constrained sample, reverse density, accept/reject) in
// steady state. The acceptance budget for this benchmark is 0 allocs/op
// after the warm-up move (enforced by TestGlobalProposeZeroAllocs).
func BenchmarkGlobalPropose(b *testing.B) {
	s := benchGlobalSampler(b, WalkPosterior)
	beta := 1 / (alloy.KB * 1200)
	s.StepCanonical(beta) // warm-up: lazily sized scratch is allocated here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepCanonical(beta)
	}
}

// BenchmarkGlobalProposeJumpPrior measures the prior-latent variant (no
// encoder passes; decoder + constrained sampling only).
func BenchmarkGlobalProposeJumpPrior(b *testing.B) {
	s := benchGlobalSampler(b, JumpPrior)
	beta := 1 / (alloy.KB * 1200)
	s.StepCanonical(beta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepCanonical(beta)
	}
}

// BenchmarkKSwapPropose measures the unguided K-swap baseline (K=5).
func BenchmarkKSwapPropose(b *testing.B) {
	lat := lattice.MustNew(lattice.BCC, 8, 8, 8)
	m := alloy.NbMoTaW(lat)
	src := rng.New(303)
	cfg := lattice.EquiatomicConfig(lat, 4, src)
	s := NewSampler(m, cfg, NewKSwapProposal(m, 5), src)
	beta := 1 / (alloy.KB * 1000)
	s.StepCanonical(beta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepCanonical(beta)
	}
}
