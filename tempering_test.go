package deepthermo

// Parallel tempering (replica exchange in temperature), the conventional
// parallel Monte Carlo method DeepThermo's density-of-states approach is an
// alternative to, kept as test code: it is the independent estimator
// TestE12CrossCheck (experiment E12) holds the facade's DOS route to.
//
// A ladder of canonical replicas runs concurrently, one per temperature;
// neighboring replicas periodically attempt configuration swaps with the
// standard acceptance min{1, exp(Δβ·ΔE)}. Parallel tempering accelerates
// equilibration across free-energy barriers but — unlike Wang-Landau —
// yields observables only at the ladder temperatures, which is precisely
// the contrast the paper draws when it targets g(E) directly.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
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

func smallSystem(t testing.TB) (*alloy.Model, *dos.Exact) {
	t.Helper()
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	ex, err := dos.EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, ex
}

func exactMean(x *dos.Exact, tKelvin float64) float64 {
	beta := 1 / (alloy.KB * tKelvin)
	var z, ze float64
	for i, e := range x.E {
		w := x.Count[i] * math.Exp(-beta*(e-x.E[0]))
		z += w
		ze += w * e
	}
	return ze / z
}

// TestMatchesExactEnsemble: every replica must reproduce the exact
// canonical mean energy at its own temperature — the detailed-balance test
// for the combined sweep+exchange kernel.
func TestMatchesExactEnsemble(t *testing.T) {
	m, exact := smallSystem(t)
	temps := []float64{400, 800, 1600, 3200}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(1))
	res, err := Run(m, seed, Options{
		Temps:          temps,
		SweepsPerRound: 20,
		EquilRounds:    100,
		MeasureRounds:  4000,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range res.Replicas {
		want := exactMean(exact, temps[i])
		if math.Abs(rep.Energy.Mean()-want) > 0.012 {
			t.Errorf("T=%g: ⟨E⟩ = %.4f, exact %.4f", temps[i], rep.Energy.Mean(), want)
		}
	}
}

func TestExchangesAccepted(t *testing.T) {
	m, _ := smallSystem(t)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(3))
	res, err := Run(m, seed, Options{
		Temps:         GeometricLadder(500, 4000, 6),
		EquilRounds:   20,
		MeasureRounds: 100,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeTried == 0 {
		t.Fatal("no exchanges attempted")
	}
	// A geometric ladder on a small system exchanges frequently.
	if res.ExchangeRate() < 0.2 {
		t.Errorf("exchange rate %g suspiciously low", res.ExchangeRate())
	}
	if len(res.FinalConfigs) != 6 {
		t.Errorf("%d final configs", len(res.FinalConfigs))
	}
}

// TestEnergyMonotoneInT: mean energy must increase along the ladder.
// seriesProposal is the swap proposal that also records the energy its
// walker starts each round from, which is the energy the previous round
// measured (an exchange moves configurations, not proposals).
type seriesProposal struct {
	mc.Proposal
	stepsPerRound int
	steps         int
	roundStarts   []float64
}

func (p *seriesProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	if p.steps%p.stepsPerRound == 0 {
		p.roundStarts = append(p.roundStarts, curE)
	}
	p.steps++
	return p.Proposal.Propose(cfg, curE, src)
}

// TestEnergyMonotoneInT: ⟨E⟩ rises with T, and the fluctuation C_v is never
// negative and is positive exactly where the replica's measured energy
// series varies. Energies are exact, so a replica frozen in its ground
// state measures C_v = 0, not rounding noise.
func TestEnergyMonotoneInT(t *testing.T) {
	m, _ := smallSystem(t)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(5))
	const sweepsPerRound, equil = 10, 100
	props := make([]*seriesProposal, 3)
	res, err := Run(m, seed, Options{
		Temps:          []float64{300, 1000, 5000},
		SweepsPerRound: sweepsPerRound,
		EquilRounds:    equil,
		MeasureRounds:  800,
		Seed:           6,
		NewProposal: func(i int, _ *rng.Source) mc.Proposal {
			props[i] = &seriesProposal{Proposal: mc.NewSwapProposal(m), stepsPerRound: sweepsPerRound * m.Lattice().NumSites()}
			return props[i]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Replicas); i++ {
		if res.Replicas[i].Energy.Mean() <= res.Replicas[i-1].Energy.Mean() {
			t.Errorf("⟨E⟩ not increasing: %g then %g",
				res.Replicas[i-1].Energy.Mean(), res.Replicas[i].Energy.Mean())
		}
	}
	for i, rep := range res.Replicas {
		// Round r's measurement is where round r+1 starts; the last one is
		// the final configuration's energy.
		series := append(props[i].roundStarts[equil+1:], m.Energy(res.FinalConfigs[i]))
		if len(series) != rep.Energy.N() {
			t.Fatalf("T=%g: reconstructed %d measurements, the run took %d", rep.T, len(series), rep.Energy.N())
		}
		varies := false
		for _, e := range series {
			varies = varies || e != series[0]
		}
		switch {
		case rep.Cv < 0:
			t.Errorf("T=%g: Cv = %g < 0", rep.T, rep.Cv)
		case varies && rep.Cv == 0:
			t.Errorf("T=%g: the energy series varies but Cv = 0", rep.T)
		case !varies && rep.Cv != 0:
			t.Errorf("T=%g: the energy series is constant at %g but Cv = %g", rep.T, series[0], rep.Cv)
		}
	}
}

func TestValidation(t *testing.T) {
	m, _ := smallSystem(t)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(7))
	if _, err := Run(m, seed, Options{Temps: []float64{500}}); err == nil {
		t.Error("single-temperature ladder accepted")
	}
	if _, err := Run(m, seed, Options{Temps: []float64{500, 400}}); err == nil {
		t.Error("descending ladder accepted")
	}
}

func TestCustomProposalFactory(t *testing.T) {
	m, _ := smallSystem(t)
	vcfg := vae.Config{Sites: 8, Species: 2, Latent: 2, Hidden: 8, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(9))
	res, err := Run(m, seed, Options{
		Temps:         []float64{600, 2400},
		EquilRounds:   10,
		MeasureRounds: 50,
		Seed:          10,
		NewProposal: func(replica int, src *rng.Source) mc.Proposal {
			return mc.NewMixture(
				[]mc.Proposal{mc.NewSwapProposal(m), mc.NewGlobalProposal(model.CloneWeights(src), m, []int{4, 4}, 0.5)},
				[]float64{0.8, 0.2},
			)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Replicas {
		if rep.Energy.N() == 0 {
			t.Fatal("no measurements")
		}
	}
}

func TestDeterministic(t *testing.T) {
	m, _ := smallSystem(t)
	run := func() float64 {
		seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(11))
		res, err := Run(m, seed, Options{
			Temps:         []float64{500, 2000},
			EquilRounds:   10,
			MeasureRounds: 50,
			Seed:          12,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Replicas[0].Energy.Mean()
	}
	if run() != run() {
		t.Error("same seed produced different results")
	}
}

func TestGeometricLadder(t *testing.T) {
	l := GeometricLadder(100, 1600, 5)
	if len(l) != 5 || l[0] != 100 || math.Abs(l[4]-1600) > 1e-9 {
		t.Errorf("ladder %v", l)
	}
	for i := 1; i < len(l); i++ {
		if math.Abs(l[i]/l[i-1]-2) > 1e-9 {
			t.Errorf("ratio broken at %d", i)
		}
	}
	if l := GeometricLadder(100, 200, 1); len(l) != 2 {
		t.Error("degenerate ladder not clamped")
	}
}

func TestRunningMoments(t *testing.T) {
	var r running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g", r.Mean())
	}
	// Unbiased variance of this set is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g", r.Variance())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Error("empty accumulator not zero")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Errorf("one sample: Mean = %g, Variance = %g", r.Mean(), r.Variance())
	}
}
