// Package tempering implements parallel tempering (replica exchange in
// temperature), the conventional parallel Monte Carlo method DeepThermo's
// density-of-states approach is an alternative to.
//
// A ladder of canonical replicas runs concurrently, one per temperature;
// neighboring replicas periodically attempt configuration swaps with the
// standard acceptance min{1, exp(Δβ·ΔE)}. Parallel tempering accelerates
// equilibration across free-energy barriers but — unlike Wang-Landau —
// yields observables only at the ladder temperatures, which is precisely
// the contrast the paper draws when it targets g(E) directly. The package
// is the comparison baseline: experiment E12, the root package's
// TestE12CrossCheck, checks the facade's DOS route against it. Training
// data comes from package workload, not from here.
package tempering

import (
	"fmt"
	"math"
	"sync"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// Options configures a parallel-tempering run.
type Options struct {
	Temps          []float64 // ladder, ascending (required, ≥2 entries)
	SweepsPerRound int       // sweeps between exchange attempts (default 10)
	EquilRounds    int       // discarded rounds (default 50)
	MeasureRounds  int       // measured rounds (default 200)
	Seed           uint64
	NewProposal    func(replica int, src *rng.Source) mc.Proposal // nil = local swap
}

// ReplicaStat is one temperature's measured observables.
type ReplicaStat struct {
	T          float64
	Energy     running // per-configuration energy samples
	Acceptance float64 // Metropolis acceptance at this temperature
	// Cv is the fluctuation estimate (⟨E²⟩−⟨E⟩²)/(k_B T²) in eV/K.
	Cv float64
}

// running accumulates mean and variance with Welford's algorithm, which is
// stable for the long correlated series MC sampling produces. The zero
// value is ready to use.
type running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (r *running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples.
func (r *running) N() int { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with <2 samples).
func (r *running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Result is a completed parallel-tempering run.
type Result struct {
	Replicas       []ReplicaStat
	ExchangeTried  int64
	ExchangeAccept int64
	// FinalConfigs are the last configurations, ladder-ordered.
	FinalConfigs []lattice.Config
}

// ExchangeRate returns the fraction of accepted replica exchanges.
func (r *Result) ExchangeRate() float64 {
	if r.ExchangeTried == 0 {
		return 0
	}
	return float64(r.ExchangeAccept) / float64(r.ExchangeTried)
}

// Run executes parallel tempering on the model starting from clones of
// seedCfg. The sweep phases run concurrently (one goroutine per replica);
// exchanges are coordinated serially between rounds, mirroring the
// bulk-synchronous structure of the REWL driver.
func Run(m *alloy.Model, seedCfg lattice.Config, opts Options) (*Result, error) {
	if len(opts.Temps) < 2 {
		return nil, fmt.Errorf("tempering: need at least 2 temperatures")
	}
	for i := 1; i < len(opts.Temps); i++ {
		if opts.Temps[i] <= opts.Temps[i-1] {
			return nil, fmt.Errorf("tempering: ladder must ascend (%g after %g)", opts.Temps[i], opts.Temps[i-1])
		}
	}
	if opts.SweepsPerRound == 0 {
		opts.SweepsPerRound = 10
	}
	if opts.EquilRounds == 0 {
		opts.EquilRounds = 50
	}
	if opts.MeasureRounds == 0 {
		opts.MeasureRounds = 200
	}

	nRep := len(opts.Temps)
	streams := rng.NewStreams(opts.Seed, nRep+1)
	coord := streams[nRep]

	samplers := make([]*mc.Sampler, nRep)
	for i := range samplers {
		src := streams[i]
		var prop mc.Proposal
		if opts.NewProposal != nil {
			prop = opts.NewProposal(i, src)
		} else {
			prop = mc.NewSwapProposal(m)
		}
		samplers[i] = mc.NewSampler(m, seedCfg.Clone(), prop, src)
	}

	res := &Result{Replicas: make([]ReplicaStat, nRep)}
	for i := range res.Replicas {
		res.Replicas[i].T = opts.Temps[i]
	}

	totalRounds := opts.EquilRounds + opts.MeasureRounds
	for round := 0; round < totalRounds; round++ {
		// Parallel sweep phase.
		var wg sync.WaitGroup
		for i, s := range samplers {
			wg.Add(1)
			go func(i int, s *mc.Sampler) {
				defer wg.Done()
				for k := 0; k < opts.SweepsPerRound; k++ {
					s.Sweep(opts.Temps[i])
				}
			}(i, s)
		}
		wg.Wait()

		// Serial exchange phase, alternating pair parity.
		for i := round % 2; i+1 < nRep; i += 2 {
			res.ExchangeTried++
			if tryExchange(samplers[i], samplers[i+1], opts.Temps[i], opts.Temps[i+1], coord) {
				res.ExchangeAccept++
			}
		}

		if round >= opts.EquilRounds {
			for i, s := range samplers {
				res.Replicas[i].Energy.Add(s.E)
			}
		}
	}

	for i, s := range samplers {
		r := &res.Replicas[i]
		r.Acceptance = s.AcceptanceRate()
		t := opts.Temps[i]
		r.Cv = r.Energy.Variance() / (alloy.KB * t * t)
		res.FinalConfigs = append(res.FinalConfigs, s.Cfg.Clone())
	}
	return res, nil
}

// tryExchange attempts a configuration swap between replicas at ta < tb:
// accept with probability min{1, exp((βa−βb)(Ea−Eb))}.
func tryExchange(a, b *mc.Sampler, ta, tb float64, src *rng.Source) bool {
	betaA := 1 / (alloy.KB * ta)
	betaB := 1 / (alloy.KB * tb)
	logA := (betaA - betaB) * (a.E - b.E)
	if logA < 0 && math.Log(src.Float64()+1e-300) >= logA {
		return false
	}
	a.Cfg, b.Cfg = b.Cfg, a.Cfg
	a.E, b.E = b.E, a.E
	return true
}

// GeometricLadder returns n temperatures geometrically spaced in [lo, hi],
// the standard ladder shape for roughly constant exchange acceptance.
func GeometricLadder(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo, hi}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}
