package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"deepthermo"
	"deepthermo/internal/dos"
	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
)

// sampleSpec is what a repetition asks the sampler for: the facade's own
// DOSConfig, the System seed, and the two knobs of rewl.Options the facade
// does not pass on. With both left at zero and no hooks, sample reproduces
// deepthermo.System.SampleDOS byte for byte (TestRecipeMatchesFacade).
type sampleSpec struct {
	Seed uint64 // the System's SystemConfig.Seed
	deepthermo.DOSConfig

	// LnFInit and MaxRounds pin the schedule: the walkers start at this
	// modification factor (0: the sampler's 1) and the run stops after this
	// many exchange rounds (0: the sampler's 10,000). They are why the timed
	// repetitions go through this recipe and not through System.SampleDOS:
	// flatness-driven convergence time varies several-fold from seed to
	// seed, a fixed schedule does not (README.md).
	LnFInit   float64
	MaxRounds int
}

// sampleHooks are the outside decorations of the traced pass.
type sampleHooks struct {
	book   *proposalBook // nil: bare proposals
	tr     *tracer
	run    string
	parent int
}

func (h sampleHooks) wrap(kind string, p mc.Proposal) mc.Proposal {
	if h.book == nil {
		return p
	}
	return h.book.wrap(kind, p)
}

// sampled is a finished run plus what the facade would have put in
// DOSResult.
type sampled struct {
	Run   *rewl.Result
	Batch *infer.Stats
	// Endpoints are the decorated endpoints of a traced distributed run
	// (leader first); nil otherwise.
	Endpoints []*timedEndpoint
	JoinS     float64
	BytesSent int64
}

// energyRange replicates System.sampleEnergyRange: hot sampling for the
// maximum, annealing for the minimum, the annealed configuration as the
// REWL seed. Same RNG stream (Seed+23), same draw order.
func energyRange(sys *deepthermo.System, seed uint64) (lo, hi float64, best lattice.Config) {
	src := rng.New(seed + 23)
	cfg := make(lattice.Config, 0, sys.Lat.NumSites())
	for sp, q := range sys.Quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	w := mc.NewSampler(sys.Ham, cfg, mc.NewSwapProposal(sys.Ham), src)
	hi = w.E
	for i := 0; i < 100; i++ {
		w.Sweep(6000)
		if w.E > hi {
			hi = w.E
		}
	}
	w.Anneal([]float64{3000, 1500, 800, 400, 200, 100, 50}, 120)
	lo = w.E
	best = w.Cfg.Clone()
	for i := 0; i < 200; i++ {
		w.Sweep(40)
		if w.E < lo {
			lo = w.E
			copy(best, w.Cfg)
		}
	}
	span := hi - lo
	return lo - 0.02*span, hi + 0.10*span, best
}

// plan is the part of the facade recipe every rank of a world shares: the
// window ladder, the proposal factory and the REWL options.
type plan struct {
	seedCfg lattice.Config
	wins    []wanglandau.Window
	factory rewl.ProposalFactory
	opts    rewl.Options
	engine  *infer.Engine
}

func newPlan(sys *deepthermo.System, spec sampleSpec, h sampleHooks) (*plan, error) {
	if spec.Windows == 0 {
		spec.Windows = 4
	}
	if spec.Walkers == 0 {
		spec.Walkers = 1
	}
	if spec.Bins == 0 {
		spec.Bins = 48
	}
	if spec.Overlap == 0 {
		spec.Overlap = 0.75
	}
	if spec.LnFFinal == 0 {
		spec.LnFFinal = 1e-4
	}
	if spec.DLWeight == 0 {
		spec.DLWeight = 0.15
	}
	id := h.tr.begin("recipe.energy_range", h.run, h.parent)
	lo, hi, seedCfg := energyRange(sys, spec.Seed)
	h.tr.end(id)
	wins, err := rewl.SplitWindows(lo, hi, spec.Windows, spec.Overlap, (hi-lo)/float64(spec.Bins))
	if err != nil {
		return nil, err
	}
	p := &plan{seedCfg: seedCfg, wins: wins}
	dl := !spec.NoDL && sys.Model != nil
	if spec.BatchInference && dl {
		p.engine = infer.NewEngine(sys.Model.CloneWeights(rng.New(spec.Seed + 31)))
	}
	p.factory = func(win, widx int, wsrc *rng.Source) mc.Proposal {
		if !dl {
			return h.wrap("swap", mc.NewSwapProposal(sys.Ham))
		}
		var gp *mc.GlobalProposal
		if p.engine != nil {
			for i, n := 0, vae.WeightDraws(sys.Model.Config()); i < n; i++ {
				wsrc.Float64()
			}
			gp = mc.NewGlobalProposalWith(p.engine.NewClient(), sys.Ham, sys.Quota, mc.CondForT(1000))
		} else {
			gp = mc.NewGlobalProposal(sys.Model.CloneWeights(wsrc), sys.Ham, sys.Quota, mc.CondForT(1000))
		}
		return mc.NewMixture(
			[]mc.Proposal{h.wrap("swap", mc.NewSwapProposal(sys.Ham)), h.wrap("dl", gp)},
			[]float64{1 - spec.DLWeight, spec.DLWeight},
		)
	}
	p.opts = rewl.Options{
		Seed:             spec.Seed + 29,
		WalkersPerWindow: spec.Walkers,
		MaxRounds:        spec.MaxRounds,
		WL:               wanglandau.Options{LnFFinal: spec.LnFFinal, LnFInit: spec.LnFInit},
		OneOverT:         spec.OneOverT,
		Adaptive:         rewl.AdaptiveOptions{Enabled: spec.Adaptive},
		PrepareSweeps:    20000,
		CheckpointDir:    spec.CheckpointDir,
		CheckpointEvery:  spec.CheckpointEvery,
		Resume:           spec.Resume,
		Faults:           spec.Faults,
		WalkerTimeout:    spec.WalkerTimeout,
	}
	return p, nil
}

// finish normalises the merged DOS to the multinomial state count, as the
// facade does.
func finish(sys *deepthermo.System, p *plan, run *rewl.Result) (*sampled, error) {
	logStates, err := dos.LogMultinomial(sys.Lat.NumSites(), sys.Quota)
	if err != nil {
		return nil, err
	}
	run.DOS.NormalizeTo(logStates)
	out := &sampled{Run: run}
	if p.engine != nil {
		st := p.engine.Stats()
		out.Batch = &st
	}
	return out, nil
}

// sample is the single-process recipe: System.SampleDOS with the schedule
// and the proposal decoration exposed.
func sample(ctx context.Context, sys *deepthermo.System, spec sampleSpec, h sampleHooks) (*sampled, error) {
	p, err := newPlan(sys, spec, h)
	if err != nil {
		return nil, err
	}
	id := h.tr.begin("rewl.run", h.run, h.parent)
	run, err := rewl.RunContext(ctx, sys.Ham, p.seedCfg, p.wins, p.factory, p.opts)
	h.tr.end(id)
	if err != nil {
		return nil, err
	}
	return finish(sys, p, run)
}

// sampleTCP runs the same plan sharded over a loopback TCP world of
// `ranks` ranks in this process: one rendezvous coordinator, one goroutine
// per rank, rewl.RunDistributed on each. The leader's result is returned.
func sampleTCP(ctx context.Context, sys *deepthermo.System, spec sampleSpec, ranks int, h sampleHooks) (*sampled, error) {
	p, err := newPlan(sys, spec, h)
	if err != nil {
		return nil, err
	}
	// A rank that fails before it enters the protocol (a rejected window,
	// say) leaves its peers blocked in a receive with no timeout; the first
	// error therefore cancels every rank.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	joinStart := time.Now()
	jid := h.tr.begin("transport.join", h.run, h.parent)
	co, err := transport.NewCoordinator("127.0.0.1:0", ranks)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	eps := make([]*transport.TCPEndpoint, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = transport.Join(ctx, co.Addr(), transport.JoinOptions{Timeout: 20 * time.Second})
		}(i)
	}
	wg.Wait()
	h.tr.end(jid)
	joinS := time.Since(joinStart).Seconds()
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
	}

	rid := h.tr.begin("rewl.run_distributed", h.run, h.parent)
	results := make([]*rewl.Result, ranks)
	timedEps := make([]*timedEndpoint, ranks)
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *transport.TCPEndpoint) {
			defer wg.Done()
			var use transport.Endpoint = ep
			if h.book != nil {
				te := &timedEndpoint{Endpoint: ep, tr: h.tr, run: h.run, parent: rid}
				timedEps[ep.Rank()] = te
				use = te
			}
			results[ep.Rank()], errs[i] = rewl.RunDistributed(ctx, use, sys.Ham, p.seedCfg, p.wins, p.factory, p.opts)
			if errs[i] != nil {
				cancel()
			}
		}(i, ep)
	}
	wg.Wait()
	h.tr.end(rid)
	// Report the error that started the cancellation, not its echoes.
	var failed error
	for i, err := range errs {
		if err != nil && (failed == nil || errors.Is(failed, context.Canceled)) {
			failed = fmt.Errorf("rank %d: %w", i, err)
		}
	}
	if failed != nil {
		return nil, failed
	}
	if results[0] == nil {
		return nil, fmt.Errorf("leader returned no result")
	}
	out, err := finish(sys, p, results[0])
	if err != nil {
		return nil, err
	}
	out.JoinS = joinS
	for _, ep := range eps {
		out.BytesSent += ep.BytesSent()
	}
	if h.book != nil {
		out.Endpoints = timedEps
	}
	return out, nil
}
