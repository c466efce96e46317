package deepthermo

import (
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// WarrenCowley returns the Warren-Cowley short-range-order parameters
// α[a][b] of cfg for coordination shell s with k species (0 = random
// solution, negative = a-b ordering, positive = clustering).
func WarrenCowley(l *Lattice, cfg Config, s, k int) [][]float64 {
	return lattice.WarrenCowley(l, cfg, s, k)
}

// SamplerConfig configures a canonical Metropolis walker on a System.
type SamplerConfig struct {
	Seed uint64
	// DLWeight is the fraction of moves drawn from the trained DL global
	// proposal (0 = pure local swaps; requires TrainProposal first when
	// nonzero).
	DLWeight float64
	// CondT is the DL proposal's conditioning temperature in kelvin
	// (default 1000; only used when DLWeight > 0).
	CondT float64
}

// NewSampler returns a canonical Metropolis walker over a fresh random
// on-composition configuration of the system. Drive it with Sweep /
// StepCanonical and read Cfg / E / AcceptanceRate.
func (s *System) NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Seed == 0 {
		cfg.Seed = s.cfg.Seed + 41
	}
	if cfg.CondT == 0 {
		cfg.CondT = 1000
	}
	src := rng.New(cfg.Seed)
	start := lattice.QuotaConfig(s.Quota, src)
	var prop Proposal = mc.NewSwapProposal(s.Ham)
	if cfg.DLWeight > 0 && s.Model != nil {
		gp := mc.NewGlobalProposal(s.Model.CloneWeights(src), s.Ham, s.Quota, mc.CondForT(cfg.CondT))
		prop = mc.NewMixture([]Proposal{prop, gp}, []float64{1 - cfg.DLWeight, cfg.DLWeight})
	}
	return mc.NewSampler(s.Ham, start, prop, src)
}
