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
//     of relearning from scratch.
//
// The window ladder is the caller's for the whole run; only the walker
// count per window changes. The controller lives on the leader and reads
// walker histograms and configurations directly, so it runs only when
// rank 0 owns every window. The telemetry is built from the owners' round
// reports, at every world size.
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
// value disables it.
type AdaptiveOptions struct {
	// Enabled turns the controller on. Off, the driver is bit-identical
	// to the static one.
	Enabled bool
}

// The controller's fixed cadence and thresholds.
const (
	// rebalanceEvery is the controller cadence in exchange rounds.
	// Telemetry is still collected every round.
	rebalanceEvery = 10
	// stageLag is how many ln f stages a window must trail the most
	// advanced unconverged window before it counts as a straggler
	// eligible to receive a walker. Converged windows are always
	// considered ahead.
	stageLag = 2
	// maxWalkersFactor caps a window's live walker count after migration
	// at maxWalkersFactor·WalkersPerWindow.
	maxWalkersFactor = 2
)

// WindowTelemetry is one window's convergence snapshot, collected at the
// exchange-round barrier.
type WindowTelemetry struct {
	Window    int     // window index in the ladder
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
	From  int // donor window
	To    int // receiving window
	Slot  int // migrant's slot in To
	Gen   int // migrant generation, the RNG stream key component
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
// barrier from the owners' round reports, so it is the same at every world
// size. Sweep rates compare against the previous snapshot; everything the
// controller *decides* on is checkpoint-covered state, so the rate being
// informational-only keeps resumed runs bit-identical.
func (L *distLeader) collectTelemetry(round int) {
	telem := make([]WindowTelemetry, len(L.windows))
	for wi := range L.windows {
		t := WindowTelemetry{
			Window: wi,
			Round:  round,
			Stage:  L.stages[wi],
			LnF:    L.lastLnFG[wi],
			Sweeps: L.retiredSweeps[wi],
		}
		for _, a := range L.aliveG[wi] {
			if a {
				t.Walkers++
			}
		}
		t.Degraded = t.Walkers == 0
		if !t.Degraded {
			rep := L.winRep[wi]
			t.Flatness, t.Coverage, t.Converged = rep.flatness, rep.coverage, rep.convBefore()
			t.Sweeps += rep.sweeps
		}
		t.SweepRate = float64(t.Sweeps - L.prevSweeps[wi])
		L.prevSweeps[wi] = t.Sweeps
		telem[wi] = t
	}
	L.telem = telem
}

// adapt is the rebalancing controller, invoked at the round barrier every
// rebalanceEvery rounds. It migrates at most one walker into each eligible
// straggler window per invocation.
func (L *distLeader) adapt(round int) error {
	walkers, alive := L.o.walkers, L.o.alive
	maxWalk := maxWalkersFactor * L.opts.WalkersPerWindow

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
	// unconverged window by ≥ stageLag stages — or any live unconverged
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
		if lead-L.stages[wi] >= stageLag || anyConverged {
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
				if L.stages[wi]-L.stages[s] >= stageLag && L.stages[wi] > bestStage {
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
		slot, err := L.spawnMigrant(s, walkers[from][donorIdx].Config().Clone())
		if err != nil {
			return err
		}
		if retire >= 0 {
			// The round's report counted the retiree's moves, which the
			// window's Result leaves out with the walker.
			w := walkers[from][retire]
			alive[from][retire] = false
			L.aliveG[from][retire] = false
			L.retired[from]++
			L.retiredSweeps[from] += w.Sweeps()
			L.winRep[from].acc -= w.Sampler().Accepted
			L.winRep[from].prop -= w.Sampler().Proposed
		}
		L.res.Migrations++
		L.res.Events = append(L.res.Events, MigrationEvent{Round: round, From: from, To: s, Slot: slot, Gen: L.gen})
		live, conv, lead = classify()
	}
	return nil
}

// spawnMigrant creates a walker in the live window `to` at the next slot,
// with an RNG stream keyed by (window, slot, generation), a configuration
// steered into the window (falling back to a live peer's configuration
// when steering fails), and the window's consensus ln g, ln f and 1/t clock
// adopted so the migrant contributes statistics instead of relearning.
// Returns the slot used.
func (L *distLeader) spawnMigrant(to int, cfg lattice.Config) (int, error) {
	o, opts := L.o, L.opts
	win := L.windows[to]
	ref := o.walkers[to][firstAlive(o.alive[to])]
	slot := len(o.walkers[to])
	L.gen++
	src := rng.New(migrantSeed(opts.Seed, to, slot, L.gen))
	if _, err := wanglandau.PrepareInWindow(L.m, cfg, win, src, opts.PrepareSweeps); err != nil {
		cfg = ref.Config().Clone()
	}
	w, err := wanglandau.NewWalker(L.m, cfg, L.newProposal(to, slot, src), src, win, opts.WL)
	if err != nil {
		return -1, fmt.Errorf("rewl: adaptive migrant for window %d: %w", to, err)
	}
	if logG := L.frozenG[to]; len(logG) == win.Bins {
		if err := w.AdoptConsensus(logG, ref.LnF(), ref.Steps(), ref.InOneOverTPhase()); err != nil {
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
