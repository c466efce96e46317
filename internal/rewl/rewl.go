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
// The driver is bulk-synchronous. In each round every window's owner
// sweeps its walkers independently, merges their ln g, ends the window's
// stage when its walkers are flat, and reports; then the leader runs the
// serial exchange phase from the reports alone, and builds the Result from
// the last completed round's reports. This mirrors the paper's MPI
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
//     atomically every CheckpointEvery rounds by the leader as one
//     checksummed world file per round, the newest three rounds are kept,
//     and Options.Resume continues a run bit-identically to the
//     uninterrupted one from the newest round that still verifies, on a
//     world of any size.
package rewl

import (
	"context"
	"fmt"
	"math"
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
	// rounds (default 10 when a dir is set) the leader writes the world's
	// state atomically to CheckpointDir/rewl-round<n>.ckpt, keeping the
	// newest three rounds; a round in which any rank is dead is not
	// written. Only the leader reads or writes the directory. Empty
	// disables checkpointing.
	CheckpointDir   string
	CheckpointEvery int
	// Resume continues from CheckpointDir's checkpoint if one exists
	// (bit-identically to the uninterrupted run); absent a checkpoint the
	// run starts fresh, so restart loops can set it unconditionally. The
	// leader restores the newest round that verifies, so a truncated or
	// corrupt newest round rolls the world back to the one before it, and
	// with none left the world starts fresh rather than aborting. A
	// checkpoint of a different run (other windows, walker count, schedule
	// or adaptive setting) is an error, not a fresh start.
	Resume bool
	// RejoinWait, when positive and CheckpointDir is set, makes the
	// leader elastic: a dead worker rank's windows are not
	// degraded immediately — the leader waits up to RejoinWait for a
	// replacement worker to join the world (transport.Rejoinable) and say
	// hello, rolls every rank back to the newest checkpoint round,
	// shipping each its part, and replays from there bit-identically to an
	// uninterrupted run. If no replacement arrives in time the windows
	// degrade as usual. Zero disables rejoin.
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
// exchange round. On cancellation the Result of the last completed round
// is returned alongside ctx's error, so callers can persist the partial
// density of states.
func RunContext(ctx context.Context, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	return RunDistributed(ctx, transport.NewChanWorld(1).Endpoint(0), m, seedCfg, windows, newProposal, opts)
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
