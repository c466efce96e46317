// Package rewl implements replica-exchange Wang-Landau (REWL) sampling,
// the parallel decomposition DeepThermo scales to thousands of GPUs.
//
// The global energy range is split into overlapping windows; each window is
// sampled by one or more Wang-Landau walkers (one "GPU" each in the paper's
// deployment, one goroutine each here). Periodically, walkers in adjacent
// windows attempt configuration exchanges with the flat-histogram
// acceptance rule, and walkers sharing a window average their ln g
// estimates. When every window's modification factor has converged the
// per-window densities of states are stitched into one (package dos).
//
// The driver is bulk-synchronous: a round of independent sweeping followed
// by a serial exchange/merge phase. This mirrors the paper's MPI
// implementation, where the exchange phase is a nearest-neighbor
// communication step between window communicators. There is one round loop
// (distributed.go); RunContext runs it over a world of one rank that owns
// every window, RunDistributed over however many ranks the endpoint has.
//
// # Fault tolerance
//
// At deployment scale walkers die (node failures, preempted jobs) and
// stall (stragglers). The driver therefore supports:
//
//   - deterministic fault injection (Options.Faults, package chaos):
//     walkers crash or stall at configured sweep counts of their own
//     clock, so every failure scenario replays bit-identically;
//   - straggler detection (Options.WalkerTimeout): a walker that does not
//     finish its round in time is declared dead and abandoned, and the
//     survivors continue;
//   - panic isolation: a panicking walker kills itself, not the run;
//   - degraded windows: when every walker of a window has died, the
//     window's last merged ln g consensus is frozen and carried into the
//     final merge, flagged in WindowStat.Degraded, instead of aborting;
//   - checkpoint/restart (Options.CheckpointDir): the full run state —
//     every walker's chain including its RNG stream position, the
//     coordinator stream, replica-flow bookkeeping — is written
//     atomically every CheckpointEvery rounds as a checksummed round file
//     per rank, the last CheckpointRetain rounds are kept, and
//     Options.Resume continues a run bit-identically to the uninterrupted
//     one from the newest round that still verifies.
package rewl

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/chaos"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// Options configures a REWL run.
type Options struct {
	WalkersPerWindow int    // default 1
	ExchangeInterval int    // sweeps per round between exchange phases (default 50)
	MaxRounds        int    // safety cutoff (default 10000)
	Seed             uint64 // master RNG seed
	WL               wanglandau.Options
	PrepareSweeps    int // sweeps allowed to steer a config into its window (default 2000)

	// OneOverT switches every walker to the Belardinelli-Pereyra 1/t
	// modification-factor schedule (wanglandau.Options.OneOverT): the
	// flatness-driven halving hands over to ln f = bins/steps once halving
	// would undershoot it, removing the late-stage saturation stall. The
	// flag is plumbed into every walker, fresh or checkpoint-restored, and
	// recorded in checkpoints so a resume with a mismatched schedule fails
	// loudly instead of silently diverging. (Setting WL.OneOverT directly
	// is equivalent.)
	OneOverT bool

	// Adaptive configures the adaptive parallelisation layer: per-round
	// convergence telemetry and deterministic walker rebalancing from
	// converged/fast windows into stragglers, on the caller's window
	// ladder. Zero value disables the layer entirely, preserving the
	// static trajectory bit-for-bit. The controller reads walker
	// histograms directly, so it requires every window on rank 0: a world
	// of more than one rank rejects it.
	Adaptive AdaptiveOptions

	// CheckpointDir enables checkpoint/restart: every CheckpointEvery
	// rounds (default 10 when a dir is set) each rank writes its state
	// atomically to CheckpointDir/rewl-rank<r>-round<n>.ckpt and records
	// it in rewl-rank<r>.manifest. Empty disables checkpointing.
	CheckpointDir   string
	CheckpointEvery int
	// CheckpointRetain is how many checkpoint rounds each rank keeps
	// (default 3 when a dir is set). Older rounds are pruned; the retained
	// set is what the resume negotiation and the elastic rollback can fall
	// back to when a newer round is corrupt or missing on some rank.
	CheckpointRetain int
	// Resume continues from CheckpointDir's checkpoint if one exists
	// (bit-identically to the uninterrupted run); absent a checkpoint the
	// run starts fresh, so restart loops can set it unconditionally. The
	// leader negotiates the newest checkpoint round every rank verifiably
	// holds and rolls the world back to it; with no common round the world
	// starts fresh rather than aborting. A checkpoint of a different run
	// (other windows, walker count, schedule or adaptive setting) is an
	// error, not a fresh start.
	Resume bool
	// RejoinWait, when positive and CheckpointDir is set, makes the
	// leader elastic: a dead worker rank's windows are not
	// degraded immediately — the leader waits up to RejoinWait for a
	// replacement worker to join the world (transport.Rejoinable), ships
	// or negotiates the rank's checkpoint state, rolls every rank back to
	// the newest common checkpoint round, and replays from there
	// bit-identically to an uninterrupted run. If no replacement arrives
	// in time the windows degrade as usual. Zero disables rejoin.
	RejoinWait time.Duration
	// Faults injects deterministic walker failures: rank wi·WalkersPerWindow+k
	// is walker k of window wi, and steps are the walker's own sweep count.
	// nil means no faults.
	Faults *chaos.Plan
	// WalkerTimeout bounds a walker's sweep round; a slower walker is
	// declared dead and abandoned (0 disables straggler detection).
	WalkerTimeout time.Duration
	// Logf, when set, receives the leader's per-round progress lines and
	// its resume and rejoin decisions. nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.WalkersPerWindow == 0 {
		o.WalkersPerWindow = 1
	}
	if o.ExchangeInterval == 0 {
		o.ExchangeInterval = 50
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 10000
	}
	if o.PrepareSweeps == 0 {
		o.PrepareSweeps = 2000
	}
	if o.CheckpointDir != "" && o.CheckpointEvery == 0 {
		o.CheckpointEvery = 10
	}
	if o.CheckpointDir != "" && o.CheckpointRetain == 0 {
		o.CheckpointRetain = defaultCheckpointRetain
	}
	if o.OneOverT {
		o.WL.OneOverT = true
	}
}

// WindowLayout reports what a window split actually achieved on the bin
// grid. DOS stitching (dos.Merge) needs at least one shared bin between
// every adjacent pair, and integer flooring can push the achieved overlap
// well below the requested fraction, so callers that care should read the
// achieved numbers rather than trust the request.
type WindowLayout struct {
	Windows    []wanglandau.Window
	TotalBins  int // bins covering [eMin, eMax) at binWidth
	WindowBins int // bins per window
	StrideBins int // bin offset between adjacent window starts
	// SharedBins is the number of bins each adjacent pair shares
	// (WindowBins - StrideBins); the constructor guarantees ≥ 1 whenever
	// there is more than one window.
	SharedBins int
	// AchievedOverlap = SharedBins / WindowBins, the overlap fraction the
	// integer layout actually delivers (0 for a single window).
	AchievedOverlap float64
}

// SplitWindows partitions [eMin, eMax) into num overlapping windows on a
// common bin grid of the given width. overlap is the fraction of each
// window shared with its successor (the REWL literature standard is 0.75).
// Window edges land on the bin grid so the merged DOS is well defined, and
// every adjacent pair is guaranteed at least one shared bin — the invariant
// DOS stitching rests on. Use SplitWindowsLayout to inspect the overlap the
// integer bin layout actually achieved.
func SplitWindows(eMin, eMax float64, num int, overlap, binWidth float64) ([]wanglandau.Window, error) {
	layout, err := SplitWindowsLayout(eMin, eMax, num, overlap, binWidth)
	if err != nil {
		return nil, err
	}
	return layout.Windows, nil
}

// SplitWindowsLayout is SplitWindows with the achieved bin-grid layout
// reported alongside the windows.
func SplitWindowsLayout(eMin, eMax float64, num int, overlap, binWidth float64) (*WindowLayout, error) {
	if num < 1 {
		return nil, fmt.Errorf("rewl: need at least one window")
	}
	if overlap < 0 || overlap >= 1 {
		return nil, fmt.Errorf("rewl: overlap %g outside [0,1)", overlap)
	}
	totalBins := int(math.Ceil((eMax - eMin) / binWidth))
	if totalBins < num {
		return nil, fmt.Errorf("rewl: %d bins cannot host %d windows", totalBins, num)
	}
	if num == 1 {
		win := wanglandau.Window{EMin: eMin, EMax: eMin + float64(totalBins)*binWidth, Bins: totalBins}
		return &WindowLayout{
			Windows:    []wanglandau.Window{win},
			TotalBins:  totalBins,
			WindowBins: totalBins,
		}, nil
	}
	// width + (num-1)·stride = total, stride = width·(1-overlap).
	width := float64(totalBins) / (1 + float64(num-1)*(1-overlap))
	stride := int(math.Floor(width * (1 - overlap)))
	if stride < 1 {
		stride = 1
	}
	// Shared bins between adjacent windows = wBins - stride
	// = totalBins - stride·num. Flooring the stride does not guarantee this
	// is positive (overlap→0 with totalBins divisible by num yields exactly
	// zero shared bins), so clamp the stride to leave ≥ 1 shared bin.
	if maxStride := (totalBins - 1) / num; stride > maxStride {
		stride = maxStride
	}
	if stride < 1 {
		return nil, fmt.Errorf("rewl: %d bins cannot give %d windows a shared bin each; more bins or fewer windows needed", totalBins, num)
	}
	wBins := totalBins - stride*(num-1)
	if wBins < 2 {
		return nil, fmt.Errorf("rewl: windows too narrow (%d bins each); fewer windows or more bins needed", wBins)
	}
	windows := make([]wanglandau.Window, num)
	for i := range windows {
		startBin := stride * i
		windows[i] = wanglandau.Window{
			EMin: eMin + float64(startBin)*binWidth,
			EMax: eMin + float64(startBin+wBins)*binWidth,
			Bins: wBins,
		}
	}
	return &WindowLayout{
		Windows:         windows,
		TotalBins:       totalBins,
		WindowBins:      wBins,
		StrideBins:      stride,
		SharedBins:      wBins - stride,
		AchievedOverlap: float64(wBins-stride) / float64(wBins),
	}, nil
}

// WindowStat summarizes one window after the run.
type WindowStat struct {
	Window      wanglandau.Window
	Converged   bool
	Stages      int
	Sweeps      int64 // summed over the window's surviving walkers
	FinalLnF    float64
	AcceptRatio float64
	// Degraded marks a window all of whose walkers died; its contribution
	// to the merged DOS is the last ln g consensus reached while at least
	// one walker lived.
	Degraded bool
	// FailedWalkers counts this window's dead walkers.
	FailedWalkers int
}

// Result is a completed REWL run.
type Result struct {
	DOS            *dos.LogDOS // merged over windows
	Windows        []WindowStat
	Rounds         int
	ExchangeTried  int64
	ExchangeAccept int64
	TotalSweeps    int64
	AllConverged   bool
	// RoundTrips counts completed bottom→top→bottom traversals of the
	// window ladder by replicas (configurations flowing through
	// exchanges) — the standard REWL mixing diagnostic: zero round trips
	// means the windows are effectively decoupled.
	RoundTrips int64
	// FailedWalkers counts walkers lost to crashes, panics, or straggler
	// timeouts; DegradedWindows counts windows that lost all walkers.
	FailedWalkers   int
	DegradedWindows int
	// Resumed reports whether the run continued from a checkpoint.
	Resumed bool
	// Rejoins counts dead worker ranks successfully replaced mid-run by
	// the elastic recovery path (Options.RejoinWait); each rejoin rolled
	// the world back to a common checkpoint round and un-degraded the
	// rank's windows.
	Rejoins int
	// Telemetry is the final per-window convergence snapshot, collected at
	// the exchange-round barrier every round.
	Telemetry []WindowTelemetry
	// Migrations counts the adaptive controller's walker migrations;
	// Events is its full decision trace, deterministic under a fixed seed
	// and reproduced bit-identically across checkpoint/resume.
	Migrations int
	Events     []MigrationEvent
}

// ProposalFactory builds a fresh proposal for walker widx of window win.
// Stateful proposals (the VAE global proposal) must not be shared between
// walkers, hence the factory.
type ProposalFactory func(win, widx int, src *rng.Source) mc.Proposal

// Run executes REWL over the given windows. seedCfg provides the starting
// configuration (it is cloned per walker and steered into each window).
func Run(m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	return RunContext(context.Background(), m, seedCfg, windows, newProposal, opts)
}

// RunContext is Run with cooperative cancellation: RunDistributed over a
// world of one rank, which owns every window. Walkers poll ctx once per
// sweep, so cancellation takes effect within one sweep rather than one
// exchange round. On cancellation the windows sampled so far are still
// merged and returned alongside ctx's error, so callers can persist the
// partial density of states.
func RunContext(ctx context.Context, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	return RunDistributed(ctx, transport.NewChanWorld(1).Endpoint(0), m, seedCfg, windows, newProposal, opts)
}

// sweepScratch is the sweep phase's per-round bookkeeping, kept on the
// ownerState and reused from round to round. done and dead are indexed by
// the flat walker index offsets[wi]+k.
type sweepScratch struct {
	offsets      []int
	done, dead   []atomic.Bool
	participants []int
	wg           sync.WaitGroup
}

// sweepPhase is one round's parallel sweep: every live, unconverged walker
// advances by opts.ExchangeInterval sweeps independently, polling for
// cancellation and abandonment between sweeps. Fault injection is keyed on
// the walker's global slot — (o.lo+wi)·WalkersPerWindow+k — and the
// walker's own sweep count, so it is independent of goroutine scheduling,
// survives checkpoint/restart, and addresses the same walker whether the
// windows sit on one rank (o.lo 0, all windows) or are sharded across
// transport ranks (o.lo = the rank's first window). Walker slices may
// be longer than WalkersPerWindow when the adaptive controller has
// migrated walkers in; migrant slots (k ≥ WalkersPerWindow) carry slot -1,
// which no chaos plan addresses, so fault plans keep targeting the static
// population they were written against. Newly dead walkers (crashes,
// panics, straggler timeouts) are cleared from o.alive.
func (o *ownerState) sweepPhase(ctx context.Context) {
	opts, walkers, alive := &o.opts, o.walkers, o.alive
	nWalk := opts.WalkersPerWindow
	done := ctx.Done()
	if o.sweep == nil {
		o.sweep = new(sweepScratch)
	}
	sc := o.sweep
	// Flat index over the (possibly ragged) walker slices.
	sc.offsets = append(sc.offsets[:0], 0)
	for wi := range walkers {
		sc.offsets = append(sc.offsets, sc.offsets[wi]+len(walkers[wi]))
	}
	offsets := sc.offsets
	if n := offsets[len(walkers)]; n > len(sc.done) {
		sc.done, sc.dead = make([]atomic.Bool, n), make([]atomic.Bool, n)
	}
	for i := range sc.dead {
		sc.dead[i].Store(false)
	}
	sc.participants = sc.participants[:0]

	// abandon stays nil — a select case that never fires — unless a
	// straggler timeout is set.
	var abandon chan struct{}
	if opts.WalkerTimeout > 0 {
		abandon = make(chan struct{})
	}
	for wi := range walkers {
		for k, w := range walkers[wi] {
			if w == nil || !alive[wi][k] || w.Converged() {
				continue
			}
			local := offsets[wi] + k
			slot := -1
			if k < nWalk {
				slot = (o.lo+wi)*nWalk + k
			}
			sc.done[local].Store(false)
			sc.participants = append(sc.participants, local)
			sc.wg.Add(1)
			go func(w *wanglandau.Walker, local, slot int) {
				defer sc.wg.Done()
				defer sc.done[local].Store(true)
				defer func() {
					if r := recover(); r != nil {
						sc.dead[local].Store(true)
					}
				}()
				for s := 0; s < opts.ExchangeInterval; s++ {
					select {
					case <-done:
						return
					case <-abandon:
						return
					default:
					}
					if opts.Faults.ShouldCrash(slot, w.Sweeps()) {
						sc.dead[local].Store(true)
						return
					}
					if d := opts.Faults.SweepDelay(slot, w.Sweeps()); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-t.C:
						case <-done:
							t.Stop()
							return
						case <-abandon:
							t.Stop()
							return
						}
					}
					w.Sweep()
				}
			}(w, local, slot)
		}
	}
	if opts.WalkerTimeout > 0 {
		roundDone := make(chan struct{})
		go func() { sc.wg.Wait(); close(roundDone) }()
		timer := time.NewTimer(opts.WalkerTimeout)
		select {
		case <-roundDone:
			timer.Stop()
		case <-timer.C:
			// Stragglers are declared dead and abandoned: the driver
			// never reads their state again, and their goroutines exit
			// at the next sweep boundary (injected stalls are
			// interruptible, so chaos tests converge promptly). They
			// still hold this round's scratch — its wait group and
			// flags — so the next round starts a fresh one.
			for _, local := range sc.participants {
				if !sc.done[local].Load() {
					sc.dead[local].Store(true)
				}
			}
			close(abandon)
			o.sweep = nil
		}
	} else {
		sc.wg.Wait()
	}
	for wi := range walkers {
		for k := range walkers[wi] {
			if sc.dead[offsets[wi]+k].Load() {
				alive[wi][k] = false
			}
		}
	}
}

func windowConverged(ws []*wanglandau.Walker) bool {
	for _, w := range ws {
		if !w.Converged() {
			return false
		}
	}
	return true
}

// aliveIn returns the window's surviving walkers.
func aliveIn(ws []*wanglandau.Walker, alive []bool) []*wanglandau.Walker {
	out := make([]*wanglandau.Walker, 0, len(ws))
	for k, w := range ws {
		if w != nil && alive[k] {
			out = append(out, w)
		}
	}
	return out
}

// aliveIdx returns the indices of a window's surviving walkers.
func aliveIdx(alive []bool) []int {
	out := make([]int, 0, len(alive))
	for k, a := range alive {
		if a {
			out = append(out, k)
		}
	}
	return out
}

// firstAlive returns the first surviving walker index, or -1.
func firstAlive(alive []bool) int {
	for k, a := range alive {
		if a {
			return k
		}
	}
	return -1
}

// mergeWindowDOS averages ln g over the walkers of one window (over bins
// visited by at least one walker) and writes the consensus back to all,
// the standard multi-walker REWL reduction.
func mergeWindowDOS(ws []*wanglandau.Walker) {
	if len(ws) < 2 {
		return
	}
	bins := ws[0].DOS().Bins()
	avg := make([]float64, bins)
	cnt := make([]int, bins)
	for _, w := range ws {
		for i, lg := range w.DOS().LogG {
			if !math.IsInf(lg, -1) {
				avg[i] += lg
				cnt[i]++
			}
		}
	}
	for i := range avg {
		if cnt[i] > 0 {
			avg[i] /= float64(cnt[i])
		} else {
			avg[i] = math.Inf(-1)
		}
	}
	for _, w := range ws {
		copy(w.DOS().LogG, avg)
	}
}

// lookup reads ln g at energy e, treating unvisited bins as ln g = 0.
func lookup(d *dos.LogDOS, e float64) float64 {
	b := d.Bin(e)
	if b < 0 {
		return 0
	}
	lg := d.LogG[b]
	if math.IsInf(lg, -1) {
		return 0
	}
	return lg
}
