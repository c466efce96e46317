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
	return benchGlobalSamplerOn(b, mode, func(m *vae.Model) Inferencer { return m })
}

// benchGlobalSamplerOn is benchGlobalSampler with the proposal running its
// forwards through backend(model).
func benchGlobalSamplerOn(b testing.TB, mode GlobalMode, backend func(*vae.Model) Inferencer) *Sampler {
	b.Helper()
	vcfg := vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
	return benchGlobalSamplerShape(b, mode, backend, 3, vcfg, []int{14, 14, 13, 13})
}

// benchGlobalSamplerShape builds the walker on a BCC cells³ lattice with
// a vcfg model (vcfg.Sites = 2·cells³) and composition quota.
func benchGlobalSamplerShape(b testing.TB, mode GlobalMode, backend func(*vae.Model) Inferencer, cells int, vcfg vae.Config, quota []int) *Sampler {
	b.Helper()
	lat := lattice.MustNew(lattice.BCC, cells, cells, cells)
	m := alloy.NbMoTaW(lat)
	model, err := vae.New(vcfg, rng.New(101))
	if err != nil {
		b.Fatal(err)
	}
	prop := NewGlobalProposalWith(backend(model), m, quota, CondForT(1200))
	prop.SetMode(mode)
	src := rng.New(202)
	cfg := make(lattice.Config, 0, vcfg.Sites)
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

// BenchmarkGlobalProposeN16H96 is BenchmarkGlobalPropose at the shape of
// the DL workloads in bench/ (dl_pipeline_n16, dl_batch_n16): 16 sites,
// 4 species, Latent 6, Hidden 96, the shape whose DL step the kernel
// levers are measured on.
func BenchmarkGlobalProposeN16H96(b *testing.B) {
	vcfg := vae.Config{Sites: 16, Species: 4, Latent: 6, Hidden: 96, BetaKL: 1}
	s := benchGlobalSamplerShape(b, WalkPosterior, func(m *vae.Model) Inferencer { return m }, 2, vcfg, []int{4, 4, 4, 4})
	beta := 1 / (alloy.KB * 1200)
	s.StepCanonical(beta)
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
