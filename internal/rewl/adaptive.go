package rewl

// Adaptive parallelisation: the static REWL decomposition fixes window
// count, overlap, and walkers-per-window up front, so the slowest window
// dictates time-to-solution while converged windows idle. The controller
// here closes that gap at the existing exchange-round barrier:
//
//   - telemetry: per-window convergence snapshots (stage index, worst
//     flatness ratio, ln f, coverage, sweep rate) collected every round;
//   - rebalancing: walkers migrate from converged or clearly-ahead windows
//     into stragglers, seeded from the straggler's consensus ln g and a
//     steered configuration, so the migrant contributes statistics instead
//     of relearning from scratch;
//   - re-splitting (optional): the slowest window is replaced by two
//     overlapping sub-windows on the same bin grid, each covering fewer
//     bins and therefore flattening faster.
//
// The controller lives on the leader and reads walker histograms and
// configurations directly, so it runs only when rank 0 owns every window.
//
// Determinism: every decision is a pure function of state the run
// checkpoints capture (stages, alive masks, walker histograms, consensus
// ln g), and every migrant draws from a fresh RNG stream keyed by
// (window, slot, generation) — never from the coordinator or a sibling
// walker's stream. A fixed seed therefore yields a fixed rebalancing
// trace, bit-identical across checkpoint/resume, and the static walker
// population keeps consuming exactly the streams the non-adaptive driver
// would.

import (
	"fmt"
	"math"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// AdaptiveOptions configures the adaptive parallelisation layer. The zero
// value disables it; Enabled with everything else zero selects the
// defaults noted on each field.
type AdaptiveOptions struct {
	// Enabled turns the controller on. Off, the driver is bit-identical
	// to the static one.
	Enabled bool
	// RebalanceEvery is the controller cadence in exchange rounds
	// (default 10). Telemetry is still collected every round.
	RebalanceEvery int
	// StageLag is how many ln f stages a window must trail the most
	// advanced unconverged window before it counts as a straggler
	// eligible to receive a walker (default 2). Converged windows are
	// always considered ahead.
	StageLag int
	// MaxWalkersPerWindow caps a window's live walker count after
	// migration (default 2·WalkersPerWindow).
	MaxWalkersPerWindow int
	// Resplit lets the controller replace the slowest window with two
	// overlapping sub-windows on the same bin grid, at most MaxResplits
	// times (default 1 when Resplit is set). Window indices shift after a
	// re-split, so fault plans (Options.Faults), which address walkers by
	// window index, should not be combined with it.
	Resplit     bool
	MaxResplits int
	// MinCoverage, when positive, is forwarded to every walker's flatness
	// gate (wanglandau.Options.MinCoverage) so the telemetry the
	// controller acts on cannot report a sliver-covered histogram as
	// flat. It stays off by default: the denominator is the window's full
	// bin grid, and on sparse spectra (few physically reachable energies
	// per window — the exactly-enumerable validation systems) even a
	// fully explored walker may never reach a fixed fraction of the grid,
	// which would stall stages forever. Opt in only when the window grid
	// is known to be densely reachable.
	MinCoverage float64
}

func (o *AdaptiveOptions) setDefaults() {
	if !o.Enabled {
		return
	}
	if o.RebalanceEvery == 0 {
		o.RebalanceEvery = 10
	}
	if o.StageLag == 0 {
		o.StageLag = 2
	}
	if o.Resplit && o.MaxResplits == 0 {
		o.MaxResplits = 1
	}
}

// WindowTelemetry is one window's convergence snapshot, collected at the
// exchange-round barrier.
type WindowTelemetry struct {
	Window    int     // window index in the current layout
	Round     int     // round the snapshot was taken after
	Stage     int     // completed ln f stages
	LnF       float64 // current modification factor
	Flatness  float64 // worst min/mean visit ratio over live walkers
	Coverage  float64 // worst visited-bin fraction over live walkers
	Walkers   int     // live walkers
	Sweeps    int64   // cumulative sweeps (including retired walkers')
	SweepRate float64 // sweeps gained since the previous snapshot
	Converged bool
	Degraded  bool
}

// MigrationEvent is one adaptive controller decision, recorded for audit
// and for the determinism tests: a fixed seed reproduces the exact trace.
type MigrationEvent struct {
	Round int
	Kind  string // "migrate" or "resplit"
	From  int    // donor window (migrate) or split window (resplit)
	To    int    // receiving window (migrate) or first child index (resplit)
	Slot  int    // migrant's slot in To (migrate)
	Gen   int    // migrant generation, the RNG stream key component
}

// migrantSeed derives the RNG stream seed for a migrant walker from the
// run seed and the (window, slot, generation) key, so migrant streams are
// reproducible and disjoint from the jump-separated static streams.
func migrantSeed(seed uint64, win, slot, gen int) uint64 {
	h := seed ^ 0xada9717e5eed5afe
	for _, v := range [3]uint64{uint64(win), uint64(slot), uint64(gen)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// collectTelemetry refreshes the per-window snapshots at the round
// barrier. Like the rest of the controller it reads walker histograms
// directly, so it runs only when rank 0 owns every window. Sweep rates
// compare against the previous snapshot; everything the controller
// *decides* on is checkpoint-covered state, so the rate being
// informational-only keeps resumed runs bit-identical.
func (L *distLeader) collectTelemetry(round int) {
	nWin := len(L.windows)
	if len(L.prevSweeps) != nWin {
		L.prevSweeps = make([]int64, nWin)
	}
	telem := make([]WindowTelemetry, nWin)
	for wi := range L.windows {
		aw := aliveIn(L.o.walkers[wi], L.o.alive[wi])
		t := WindowTelemetry{
			Window:   wi,
			Round:    round,
			Stage:    L.stages[wi],
			LnF:      L.lastLnFG[wi],
			Walkers:  len(aw),
			Sweeps:   L.retiredSweeps[wi],
			Degraded: len(aw) == 0,
		}
		flat, cov := math.Inf(1), math.Inf(1)
		for _, w := range aw {
			t.Sweeps += w.Sweeps()
			if f := w.FlatnessRatio(); f < flat {
				flat = f
			}
			if c := w.Coverage(); c < cov {
				cov = c
			}
		}
		if len(aw) > 0 {
			t.Flatness, t.Coverage = flat, cov
			t.LnF = aw[0].LnF()
			t.Converged = windowConverged(aw)
		}
		t.SweepRate = float64(t.Sweeps - L.prevSweeps[wi])
		L.prevSweeps[wi] = t.Sweeps
		telem[wi] = t
	}
	L.telem = telem
}

// adapt is the rebalancing controller, invoked at the round barrier every
// RebalanceEvery rounds. It migrates at most one walker into each eligible
// straggler window per invocation, then considers one re-split.
func (L *distLeader) adapt(round int) error {
	ad := L.opts.Adaptive
	walkers, alive := L.o.walkers, L.o.alive
	maxWalk := ad.MaxWalkersPerWindow
	if maxWalk == 0 {
		maxWalk = 2 * L.opts.WalkersPerWindow
	}

	classify := func() (live []int, conv []bool, lead int) {
		nWin := len(L.windows)
		live = make([]int, nWin)
		conv = make([]bool, nWin)
		lead = -1
		for wi := range L.windows {
			aw := aliveIn(walkers[wi], alive[wi])
			live[wi] = len(aw)
			conv[wi] = len(aw) > 0 && windowConverged(aw)
			if live[wi] > 0 && !conv[wi] && L.stages[wi] > lead {
				lead = L.stages[wi]
			}
		}
		return live, conv, lead
	}
	live, conv, lead := classify()

	// Stragglers: live, unconverged windows trailing the most advanced
	// unconverged window by ≥ StageLag stages — or any live unconverged
	// window when a converged donor exists (converged windows are
	// infinitely far ahead). Worst first: lowest stage, then worst
	// flatness, then window index, all checkpoint-covered or derived
	// deterministically from walker state.
	anyConverged := false
	for wi := range conv {
		if conv[wi] && live[wi] > 0 {
			anyConverged = true
			break
		}
	}
	var stragglers []int
	for wi := range L.windows {
		if live[wi] == 0 || conv[wi] || live[wi] >= maxWalk {
			continue
		}
		if lead-L.stages[wi] >= ad.StageLag || anyConverged {
			stragglers = append(stragglers, wi)
		}
	}
	for i := 1; i < len(stragglers); i++ { // insertion sort, deterministic
		for j := i; j > 0; j-- {
			a, b := stragglers[j-1], stragglers[j]
			if L.stages[a] < L.stages[b] ||
				(L.stages[a] == L.stages[b] && L.telem[a].Flatness <= L.telem[b].Flatness) {
				break
			}
			stragglers[j-1], stragglers[j] = b, a
		}
	}

	for _, s := range stragglers {
		// Donor preference: nearest converged window (steering a
		// configuration across few window boundaries is cheap), else the
		// furthest-ahead unconverged window that can spare a walker.
		from := -1
		bestDist := math.MaxInt32
		for wi := range L.windows {
			if conv[wi] && live[wi] > 0 {
				if d := abs(wi - s); d < bestDist {
					from, bestDist = wi, d
				}
			}
		}
		retire := -1
		if from < 0 {
			bestStage := -1
			for wi := range L.windows {
				if wi == s || conv[wi] || live[wi] < 2 {
					continue
				}
				if L.stages[wi]-L.stages[s] >= ad.StageLag && L.stages[wi] > bestStage {
					from, bestStage = wi, L.stages[wi]
				}
			}
			if from >= 0 {
				// Retire the donor's highest live slot (migrants before
				// original walkers), leaving at least one walker so the
				// donor can never degrade.
				for k := len(alive[from]) - 1; k >= 0; k-- {
					if alive[from][k] {
						retire = k
						break
					}
				}
			}
		}
		if from < 0 {
			continue
		}
		donorIdx := firstAlive(alive[from])
		if retire >= 0 {
			donorIdx = retire
		}
		donor := walkers[from][donorIdx]
		ref := walkers[s][firstAlive(alive[s])]
		slot, err := L.spawnMigrant(s, donor.Config().Clone(),
			L.frozenG[s], ref.LnF(), ref.Steps(), ref.InOneOverTPhase())
		if err != nil {
			return err
		}
		if retire >= 0 {
			alive[from][retire] = false
			L.aliveG[from][retire] = false
			L.retired[from]++
			L.retiredSweeps[from] += walkers[from][retire].Sweeps()
		}
		L.res.Migrations++
		L.res.Events = append(L.res.Events, MigrationEvent{Round: round, Kind: "migrate", From: from, To: s, Slot: slot, Gen: L.gen})
		live, conv, lead = classify()
	}

	if ad.Resplit && L.res.Resplits < ad.MaxResplits {
		return L.resplitSlowest(round)
	}
	return nil
}

// resplitSlowest replaces the slowest unconverged window with two
// overlapping sub-windows on the same bin grid, each covering ~60% of the
// parent's bins, seeded from the parent's consensus ln g. Fewer bins per
// window flatten faster, which is the whole point.
func (L *distLeader) resplitSlowest(round int) error {
	o := L.o
	// Slowest: minimum stage among live unconverged windows, ties broken
	// by worst flatness then index — and it must genuinely trail the rest.
	target, lead := -1, -1
	for wi := range L.windows {
		aw := aliveIn(o.walkers[wi], o.alive[wi])
		if len(aw) == 0 || windowConverged(aw) {
			continue
		}
		if L.stages[wi] > lead {
			lead = L.stages[wi]
		}
		if target < 0 || L.stages[wi] < L.stages[target] ||
			(L.stages[wi] == L.stages[target] && L.telem[wi].Flatness < L.telem[target].Flatness) {
			target = wi
		}
	}
	if target < 0 || lead-L.stages[target] < L.opts.Adaptive.StageLag {
		return nil
	}
	win := L.windows[target]
	b := win.Bins
	frozen := L.frozenG[target]
	if b < 8 || len(frozen) != b {
		return nil
	}
	cBins := b * 3 / 5
	if 2*cBins-b < 1 {
		cBins = b/2 + 1
	}
	if cBins < 2 || cBins >= b {
		return nil
	}
	// Reachability guard, from the parent's frozen consensus (-Inf bins
	// have never been visited): each child needs ≥2 reachable bins for its
	// walker to ever satisfy flatness, and the children's shared region
	// needs ≥1 so dos.Merge can stitch them back together. On sparse
	// spectra the geometric midpoint of a window can be physically empty —
	// splitting there would orphan the children permanently.
	reachable := func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if !math.IsInf(frozen[i], -1) {
				n++
			}
		}
		return n
	}
	if reachable(0, cBins) < 2 || reachable(b-cBins, b) < 2 || reachable(b-cBins, cBins) < 1 {
		return nil
	}
	binW := (win.EMax - win.EMin) / float64(b)
	c0 := wanglandau.Window{EMin: win.EMin, EMax: win.EMin + float64(cBins)*binW, Bins: cBins}
	c1 := wanglandau.Window{EMin: win.EMin + float64(b-cBins)*binW, EMax: win.EMax, Bins: cBins}

	// Capture parent state before splicing it out.
	parentAlive := aliveIn(o.walkers[target], o.alive[target])
	ref := parentAlive[0]
	parentSweeps := L.retiredSweeps[target]
	for _, w := range parentAlive {
		parentSweeps += w.Sweeps()
	}
	cfg0 := ref.Config().Clone()
	cfg1 := ref.Config().Clone()
	frozen0 := append([]float64(nil), frozen[:cBins]...)
	frozen1 := append([]float64(nil), frozen[b-cBins:]...)
	lnF := L.lastLnFG[target]
	steps, in1t := ref.Steps(), ref.InOneOverTPhase()
	stage := L.stages[target]

	// Splice the per-window arrays: parent out, two children in. The
	// children inherit the parent's stage and ln f; the parent's sweep
	// budget is accounted to the first child so totals stay exact.
	L.windows = spliceAny(L.windows, target, c0, c1)
	o.windows = L.windows
	L.owner = append(L.owner, 0)
	o.walkers = spliceAny(o.walkers, target, nil, nil)
	o.alive = spliceAny(o.alive, target, nil, nil)
	L.aliveG = spliceAny(L.aliveG, target, nil, nil)
	L.replicaID = spliceAny(L.replicaID, target, nil, nil)
	L.retired = spliceAny(L.retired, target, 0, 0)
	L.frozenG = spliceAny(L.frozenG, target, frozen0, frozen1)
	L.lastLnFG = spliceAny(L.lastLnFG, target, lnF, lnF)
	L.stages = spliceAny(L.stages, target, stage, stage)
	L.retiredSweeps = spliceAny(L.retiredSweeps, target, parentSweeps, 0)
	L.prevSweeps = spliceAny(L.prevSweeps, target, 0, 0)
	L.telem = spliceAny(L.telem, target, L.telem[target], L.telem[target])
	for i := range L.telem {
		L.telem[i].Window = i
	}

	if _, err := L.spawnMigrant(target, cfg0, frozen0, lnF, steps, in1t); err != nil {
		return err
	}
	if _, err := L.spawnMigrant(target+1, cfg1, frozen1, lnF, steps, in1t); err != nil {
		return err
	}
	L.res.Resplits++
	L.res.Events = append(L.res.Events, MigrationEvent{Round: round, Kind: "resplit", From: target, To: target, Gen: L.gen})
	return nil
}

// spawnMigrant creates a walker in window `to` at the next slot, with an
// RNG stream keyed by (window, slot, generation), a configuration steered
// into the window (falling back to a live peer's configuration when
// steering fails), and the window's consensus ln g adopted so the migrant
// contributes statistics instead of relearning. Returns the slot used.
func (L *distLeader) spawnMigrant(to int, cfg lattice.Config, logG []float64, lnF float64, steps int64, oneOverT bool) (int, error) {
	o, opts := L.o, L.opts
	win := L.windows[to]
	slot := len(o.walkers[to])
	L.gen++
	src := rng.New(migrantSeed(opts.Seed, to, slot, L.gen))
	if _, err := wanglandau.PrepareInWindow(L.m, cfg, win, src, opts.PrepareSweeps); err != nil {
		k := firstAlive(o.alive[to])
		if k < 0 {
			return -1, fmt.Errorf("rewl: adaptive migrant for window %d: %w", to, err)
		}
		cfg = o.walkers[to][k].Config().Clone()
	}
	w, err := wanglandau.NewWalker(L.m, cfg, L.newProposal(to, slot, src), src, win, opts.WL)
	if err != nil {
		return -1, fmt.Errorf("rewl: adaptive migrant for window %d: %w", to, err)
	}
	if len(logG) == win.Bins {
		if err := w.AdoptConsensus(logG, lnF, steps, oneOverT); err != nil {
			return -1, err
		}
	}
	o.walkers[to] = append(o.walkers[to], w)
	o.alive[to] = append(o.alive[to], true)
	L.aliveG[to] = append(L.aliveG[to], true)
	// New replica id for the migrant's configuration; it participates in
	// round-trip accounting from here on.
	L.replicaID[to] = append(L.replicaID[to], len(L.extreme))
	L.extreme = append(L.extreme, 0)
	return slot, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// spliceAny replaces element i of s with the two values a and b.
func spliceAny[T any](s []T, i int, a, b T) []T {
	out := make([]T, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, a, b)
	return append(out, s[i+1:]...)
}
