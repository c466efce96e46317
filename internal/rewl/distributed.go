package rewl

// The REWL round engine. One leader-driven loop runs every REWL at every
// world size: windows are partitioned into contiguous blocks, one block per
// transport rank (goroutines over the in-process backend, OS processes over
// TCP); every rank sweeps its own windows' walkers in parallel, and rank 0
// additionally runs the serial coordination phase — it owns the coordinator
// RNG stream and consumes it in a fixed order (one Intn per side of each
// live pair, one Float64 only when a bin-compatible exchange has logA < 0),
// asking each window's owner for the handful of values a decision needs
// (ln g lookups, energies, configurations). For a window rank 0 owns itself
// the question is a function call, otherwise a request over the endpoint;
// that is the only seam. Floats travel as raw IEEE-754 bits, so every
// decision input — and therefore every decision — is the same bits however
// the windows are placed: a world of one rank (RunContext) and a world of N
// yield the same DOS, exchange/round-trip counts and stage schedule for the
// same seed.
//
// Fault model: a rank that drops (TCP peer disconnect, injected crash) is
// handled like a failed MPI rank — the leader marks every walker of the
// rank's windows dead, and those windows degrade to their last shipped
// ln g consensus, exactly the degraded-window semantics walker faults get
// inside a rank. Checkpoints are per-rank files written in the same round
// on every rank (the leader's file carries the coordination state), so a
// killed worker can rejoin by restarting the world with Resume set.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// Protocol opcodes, leader → owner. Every command is a []float64 message;
// replies (where a command has one) are likewise []float64.
const (
	dopSweep         = 1  // [op, round] → report
	dopQueryExchange = 2  // [op, wi, k, ePartner] → [binOK, lgSelf, lgPartner]
	dopGetCfg        = 3  // [op, wi, k] → [E, cfg...]
	dopSetCfg        = 4  // [op, wi, k, E, cfg...] (no reply)
	dopEndStage      = 5  // [op, wi] (no reply)
	dopCheckpoint    = 6  // [op, nextRound] → [ok]
	dopFinish        = 7  // [op] → finish report, then the owner returns
	dopAbort         = 8  // [op] (no reply); the owner returns an error
	dopListRounds    = 9  // [op] → [n, round1..roundN] (verifiable ckpt rounds)
	dopRollback      = 10 // [op, round] → [ok]; reload state from that round (0 = fresh)
)

// Start-handshake verdicts, leader → worker, replying to the worker's
// hello ([n, round1..roundN], its locally restorable checkpoint rounds):
//
//	[startFresh, 0]                     build fresh walkers, start at round 0
//	[startLocal, c]                     restore round c from the local checkpoint
//	[startShipped, c, nbytes, packed…]  restore round c from the shipped blob
//	[startAbort, 0]                     abort (malformed hello)
//
// The worker answers the verdict with [1] once its walkers exist, or [0]
// when it could not build them, so the leader never waits on a rank that
// will not enter the command loop.
const (
	startAbort   = -1
	startFresh   = 0
	startLocal   = 1
	startShipped = 2
)

// winRange returns the contiguous window block [lo, hi) owned by rank.
func winRange(nWin, size, rank int) (lo, hi int) {
	return rank * nWin / size, (rank + 1) * nWin / size
}

// decodeRoundsList parses a [n, round1..roundN] message (worker hello,
// dopListRounds reply).
func decodeRoundsList(msg []float64) ([]int, bool) {
	if len(msg) < 1 {
		return nil, false
	}
	n := int(msg[0])
	if n < 0 || len(msg) != 1+n {
		return nil, false
	}
	rs := make([]int, n)
	for i := range rs {
		rs[i] = int(msg[1+i])
	}
	return rs, true
}

// encodeRoundsList builds a [n, round1..roundN] message.
func encodeRoundsList(rounds []int) []float64 {
	msg := make([]float64, 1, 1+len(rounds))
	msg[0] = float64(len(rounds))
	for _, r := range rounds {
		msg = append(msg, float64(r))
	}
	return msg
}

// packBytes packs a byte blob into float64 words (8 bytes per word,
// big-endian) so a checkpoint gob can travel over the float-only data
// plane. Word copies preserve bit patterns exactly, so arbitrary gob
// bytes — including ones that decode as NaNs — round-trip unchanged.
func packBytes(b []byte) []float64 {
	out := make([]float64, (len(b)+7)/8)
	for i := range out {
		var w [8]byte
		copy(w[:], b[8*i:])
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(w[:]))
	}
	return out
}

// unpackBytes reverses packBytes for a blob of n bytes.
func unpackBytes(words []float64, n int) ([]byte, error) {
	if n < 0 || (n+7)/8 != len(words) {
		return nil, fmt.Errorf("rewl: packed blob of %d words cannot hold %d bytes", len(words), n)
	}
	out := make([]byte, 8*len(words))
	for i, v := range words {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out[:n], nil
}

// RunDistributed executes REWL across the ranks of a transport world.
// Every rank calls it with identical (m, seedCfg, windows, newProposal,
// opts); rank 0 acts as the leader and returns the merged Result, other
// ranks return (nil, nil) after a clean run. The world size must not
// exceed the window count. Walkers poll ctx once per sweep; on
// cancellation the leader skips the interrupted round's coordination and
// checkpoint and returns what was sampled so far, merged, alongside ctx's
// error.
//
// With Options.CheckpointDir set, each rank writes its own round files and
// manifest (DistManifestPath) every CheckpointEvery rounds; Options.Resume
// restarts the world from the newest round every rank holds,
// bit-identically to the uninterrupted run.
func RunDistributed(ctx context.Context, ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	opts.setDefaults()
	if len(windows) == 0 {
		return nil, fmt.Errorf("rewl: no windows")
	}
	size := ep.Size()
	if opts.Adaptive.Enabled && size > 1 {
		// Walker migration reshapes walker slices and reads walker
		// histograms directly; the rank↔window protocol has no moves for
		// that. 1/t (Options.OneOverT) works at every world size.
		return nil, fmt.Errorf("rewl: adaptive rebalancing requires every window on rank 0 (world size 1, got %d)", size)
	}
	if size > len(windows) {
		return nil, fmt.Errorf("rewl: world of %d ranks cannot shard %d windows", size, len(windows))
	}
	if ep.Rank() == 0 {
		return runDistLeader(ctx, ep, m, seedCfg, windows, newProposal, opts)
	}
	return nil, runDistWorker(ctx, ep, m, seedCfg, windows, newProposal, opts)
}

// ---------------------------------------------------------------------------
// Owner state: the windows one rank hosts, shared by the leader (locally)
// and the workers (behind the command loop).

type ownerState struct {
	opts    Options
	windows []wanglandau.Window    // the whole ladder
	lo      int                    // first owned window
	walkers [][]*wanglandau.Walker // [wi-lo][k], one entry per owned window
	alive   [][]bool
	sweep   *sweepScratch // reused across rounds; nil until the first sweep
}

// newOwnerState builds the rank's walkers fresh. Walker k of window wi
// draws from stream wi·WalkersPerWindow+k of the jump-separated family, so
// a walker's chain does not depend on which rank hosts its window.
func newOwnerState(m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options, lo, hi int) (*ownerState, error) {
	nWalk := opts.WalkersPerWindow
	streams := rng.NewStreams(opts.Seed, len(windows)*nWalk+1)
	o := &ownerState{opts: opts, windows: windows, lo: lo}
	for wi := lo; wi < hi; wi++ {
		ws := make([]*wanglandau.Walker, nWalk)
		al := make([]bool, nWalk)
		for k := 0; k < nWalk; k++ {
			src := streams[wi*nWalk+k]
			cfg := seedCfg.Clone()
			if _, err := wanglandau.PrepareInWindow(m, cfg, windows[wi], src, opts.PrepareSweeps); err != nil {
				return nil, fmt.Errorf("rewl: window %d walker %d: %w", wi, k, err)
			}
			w, err := wanglandau.NewWalker(m, cfg, newProposal(wi, k, src), src, windows[wi], opts.WL)
			if err != nil {
				return nil, fmt.Errorf("rewl: window %d walker %d: %w", wi, k, err)
			}
			ws[k] = w
			al[k] = true
		}
		o.walkers = append(o.walkers, ws)
		o.alive = append(o.alive, al)
	}
	return o, nil
}

// sweepAndMerge runs one round's sweep phase over the owned windows and
// then the within-window ln g consensus merge — the two steps of a round
// that only ever touch one rank's walkers.
func (o *ownerState) sweepAndMerge(ctx context.Context) {
	o.sweepPhase(ctx)
	for i := range o.walkers {
		mergeWindowDOS(aliveIn(o.walkers[i], o.alive[i]))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// report encodes the post-merge state the leader's coordination phase
// needs, per owned window: the walker count n, per walker [alive,
// converged, flat, lnF, energy] (dead slots ship zeros), then the window's
// consensus [hasCons, lnF, LogG...].
func (o *ownerState) report() []float64 {
	n := 0
	for i, ws := range o.walkers {
		n += 1 + 5*len(ws) + 2 + o.windows[o.lo+i].Bins
	}
	msg := make([]float64, 0, n)
	for i, ws := range o.walkers {
		al := o.alive[i]
		msg = append(msg, float64(len(ws)))
		for k, w := range ws {
			if w == nil || !al[k] {
				msg = append(msg, 0, 0, 0, 0, 0)
				continue
			}
			msg = append(msg, 1, b2f(w.Converged()), b2f(w.Flat()), w.LnF(), w.Energy())
		}
		if k := firstAlive(al); k >= 0 {
			msg = append(msg, 1, ws[k].LnF())
			msg = append(msg, ws[k].DOS().LogG...)
		} else {
			msg = append(msg, 0, 0)
			msg = append(msg, make([]float64, o.windows[o.lo+i].Bins)...)
		}
	}
	return msg
}

// queryExchange evaluates one side of an exchange: whether the partner's
// energy lands in this window, and the two ln g lookups the acceptance
// ratio needs (unvisited bins read as 0).
func (o *ownerState) queryExchange(wi, k int, ePartner float64) (binOK bool, lgSelf, lgPartner float64) {
	w := o.walkers[wi-o.lo][k]
	d := w.DOS()
	return d.Bin(ePartner) >= 0, lookup(d, w.Energy()), lookup(d, ePartner)
}

// getCfg returns a walker's configuration and energy for an accepted swap.
func (o *ownerState) getCfg(wi, k int) (e float64, cfg []float64) {
	w := o.walkers[wi-o.lo][k]
	s := w.Sampler()
	cfg = make([]float64, len(s.Cfg))
	for i, sp := range s.Cfg {
		cfg[i] = float64(sp)
	}
	return s.E, cfg
}

// setCfg installs the partner's configuration and energy — the walker's
// half of an accepted configuration swap — by copying into the
// configuration the walker owns: re-pointing Cfg at a fresh slice would
// move it out of the walker's cache lines. Only a payload of another
// lattice size, which no well-formed peer sends, still replaces the slice.
func (o *ownerState) setCfg(wi, k int, e float64, cfg []float64) {
	s := o.walkers[wi-o.lo][k].Sampler()
	if len(s.Cfg) != len(cfg) {
		s.Cfg = cacheline.Make[lattice.Species](len(cfg))
	}
	for i, v := range cfg {
		s.Cfg[i] = lattice.Species(v)
	}
	s.E = e
}

// endStage advances the window's surviving walkers to the next WL stage.
func (o *ownerState) endStage(wi int) {
	for _, w := range aliveIn(o.walkers[wi-o.lo], o.alive[wi-o.lo]) {
		w.EndStage()
	}
}

// finishReport encodes the final per-window collection: [convAll, sweeps,
// accepted, proposed, lnF, hasDOS, LogG...] — what the leader needs to
// assemble WindowStats and the merged DOS.
func (o *ownerState) finishReport() []float64 {
	var msg []float64
	for i, ws := range o.walkers {
		aw := aliveIn(ws, o.alive[i])
		var sweeps, acc, prop int64
		for _, w := range aw {
			sweeps += w.Sweeps()
			acc += w.Sampler().Accepted
			prop += w.Sampler().Proposed
		}
		conv, lnF := false, 0.0
		if len(aw) > 0 {
			conv = windowConverged(aw)
			lnF = aw[0].LnF()
		}
		msg = append(msg, b2f(conv), float64(sweeps), float64(acc), float64(prop), lnF)
		if len(aw) > 0 {
			msg = append(msg, 1)
			msg = append(msg, aw[0].DOS().LogG...)
		} else {
			msg = append(msg, 0)
			msg = append(msg, make([]float64, o.windows[o.lo+i].Bins)...)
		}
	}
	return msg
}

// ---------------------------------------------------------------------------
// Worker side: a reactive command loop over the endpoint.

// ownerFromStart builds a rank's ownerState according to the leader's
// start verdict (see the start* constants).
func ownerFromStart(start []float64, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options, rank, size int) (*ownerState, error) {
	if len(start) < 2 {
		return nil, fmt.Errorf("rewl: rank %d received a malformed start verdict", rank)
	}
	switch int(start[0]) {
	case startFresh:
		lo, hi := winRange(len(windows), size, rank)
		return newOwnerState(m, seedCfg, windows, newProposal, opts, lo, hi)
	case startLocal:
		c := int(start[1])
		ck, err := loadDistRound(opts.CheckpointDir, rank, c, size)
		if err != nil {
			return nil, fmt.Errorf("rewl: rank %d restoring negotiated round %d: %w", rank, c, err)
		}
		return restoreOwnerState(m, windows, newProposal, opts, ck)
	case startShipped:
		if len(start) < 3 {
			return nil, fmt.Errorf("rewl: rank %d received a truncated shipped checkpoint", rank)
		}
		c, n := int(start[1]), int(start[2])
		blob, err := unpackBytes(start[3:], n)
		if err != nil {
			return nil, err
		}
		ck, err := decodeDistCheckpoint(blob, rank, size)
		if err != nil {
			return nil, fmt.Errorf("rewl: rank %d decoding shipped checkpoint: %w", rank, err)
		}
		if ck.Round != c {
			return nil, fmt.Errorf("rewl: rank %d shipped checkpoint claims round %d, wanted %d", rank, ck.Round, c)
		}
		return restoreOwnerState(m, windows, newProposal, opts, ck)
	default:
		return nil, fmt.Errorf("rewl: rank %d: leader aborted the start (malformed hello?)", rank)
	}
}

// rollbackVerdict is the start verdict that puts a rank at round c from
// its own files: the local checkpoint, or a fresh build for round 0.
func rollbackVerdict(c int) []float64 {
	if c == 0 {
		return []float64{startFresh, 0}
	}
	return []float64{startLocal, float64(c)}
}

func runDistWorker(ctx context.Context, ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) error {
	rank, size := ep.Rank(), ep.Size()

	// Resume handshake: offer the leader every locally restorable
	// checkpoint round; the leader negotiates the world's start verdict.
	// A replacement worker joining a running world speaks the exact same
	// handshake — the leader's recovery path answers it instead of the
	// startup path.
	var rounds []int
	if opts.Resume && opts.CheckpointDir != "" {
		rounds = availableRounds(opts.CheckpointDir, rank, size)
	}
	if err := ep.SendCtx(ctx, 0, encodeRoundsList(rounds)); err != nil {
		return fmt.Errorf("rewl: rank %d hello: %w", rank, err)
	}
	start, err := ep.RecvCtx(ctx, 0)
	if err != nil {
		return fmt.Errorf("rewl: rank %d awaiting start: %w", rank, err)
	}
	o, err := ownerFromStart(start, m, seedCfg, windows, newProposal, opts, rank, size)
	if ackErr := ep.SendCtx(ctx, 0, []float64{b2f(err == nil)}); err == nil && ackErr != nil {
		err = fmt.Errorf("rewl: rank %d start ack: %w", rank, ackErr)
	}
	if err != nil {
		return err
	}

	w := &distWorker{o: o, m: m, seedCfg: seedCfg, windows: windows, newProposal: newProposal, opts: opts, rank: rank, size: size}
	for {
		msg, err := ep.RecvCtx(ctx, 0)
		if err != nil {
			return fmt.Errorf("rewl: rank %d lost the leader: %w", rank, err)
		}
		reply, done, cerr := w.command(ctx, msg)
		if reply != nil {
			if err := ep.SendCtx(ctx, 0, reply); err != nil {
				return fmt.Errorf("rewl: rank %d reply to opcode %v: %w", rank, msg[0], err)
			}
		}
		if cerr != nil || done {
			return cerr
		}
	}
}

// distWorker is a worker rank's side of the command loop: its windows'
// owner state and what a rollback needs to rebuild it.
type distWorker struct {
	o           *ownerState
	m           *alloy.Model
	seedCfg     lattice.Config
	windows     []wanglandau.Window
	newProposal ProposalFactory
	opts        Options
	rank, size  int
}

// commandLen is each opcode's command length (see the dop* constants);
// dopSetCfg's configuration payload follows its four fields.
var commandLen = [...]int{
	dopSweep: 2, dopQueryExchange: 4, dopGetCfg: 3, dopSetCfg: 4, dopEndStage: 2,
	dopCheckpoint: 2, dopFinish: 1, dopAbort: 1, dopListRounds: 1, dopRollback: 2,
}

// command executes one leader command and returns the reply to send (nil
// for commands without one); done reports a finished run. A command no
// leader sends — an unknown opcode, a length that does not fit the
// opcode, a walker this rank does not own, a round that is not a
// non-negative integer — is an error, as is a rollback that fails (whose
// reply still goes to the leader).
func (w *distWorker) command(ctx context.Context, msg []float64) (reply []float64, done bool, err error) {
	if len(msg) == 0 {
		return nil, false, fmt.Errorf("rewl: rank %d received an empty command", w.rank)
	}
	op := fieldIndex(msg[0], len(commandLen))
	if op < 0 || commandLen[op] == 0 {
		return nil, false, fmt.Errorf("rewl: rank %d received unknown opcode %v", w.rank, msg[0])
	}
	if n := commandLen[op]; len(msg) != n && (op != dopSetCfg || len(msg) < n) {
		return nil, false, fmt.Errorf("rewl: rank %d received opcode %d with %d fields", w.rank, op, len(msg))
	}
	o := w.o
	switch op {
	case dopQueryExchange, dopGetCfg, dopSetCfg:
		wi, k := fieldIndex(msg[1]-float64(o.lo), len(o.walkers)), -1
		if wi >= 0 {
			k = fieldIndex(msg[2], len(o.walkers[wi]))
		}
		if k < 0 || o.walkers[wi][k] == nil {
			return nil, false, fmt.Errorf("rewl: rank %d does not own walker %v of window %v", w.rank, msg[2], msg[1])
		}
	case dopEndStage:
		if fieldIndex(msg[1]-float64(o.lo), len(o.walkers)) < 0 {
			return nil, false, fmt.Errorf("rewl: rank %d does not own window %v", w.rank, msg[1])
		}
	case dopCheckpoint, dopRollback:
		if fieldIndex(msg[1], math.MaxInt32) < 0 {
			return nil, false, fmt.Errorf("rewl: rank %d received round %v", w.rank, msg[1])
		}
	}

	switch op {
	case dopSweep:
		o.sweepAndMerge(ctx)
		return o.report(), false, nil
	case dopQueryExchange:
		binOK, lgS, lgP := o.queryExchange(int(msg[1]), int(msg[2]), msg[3])
		return []float64{b2f(binOK), lgS, lgP}, false, nil
	case dopGetCfg:
		e, cfg := o.getCfg(int(msg[1]), int(msg[2]))
		return append([]float64{e}, cfg...), false, nil
	case dopSetCfg:
		o.setCfg(int(msg[1]), int(msg[2]), msg[3], msg[4:])
		return nil, false, nil
	case dopEndStage:
		o.endStage(int(msg[1]))
		return nil, false, nil
	case dopCheckpoint:
		werr := o.saveDistCheckpoint(int(msg[1]), w.rank, w.size, nil)
		return []float64{b2f(werr == nil)}, false, nil
	case dopListRounds:
		return encodeRoundsList(availableRounds(w.opts.CheckpointDir, w.rank, w.size)), false, nil
	case dopRollback:
		// Elastic recovery: reload this rank's state from the negotiated
		// round (0 = rebuild fresh) so the world replays from a consistent
		// snapshot after a dead rank was replaced.
		c := int(msg[1])
		o2, rerr := ownerFromStart(rollbackVerdict(c), w.m, w.seedCfg, w.windows, w.newProposal, w.opts, w.rank, w.size)
		if rerr != nil {
			return []float64{0}, false, fmt.Errorf("rewl: rank %d rolling back to round %d: %w", w.rank, c, rerr)
		}
		w.o = o2
		return []float64{1}, false, nil
	case dopFinish:
		return o.finishReport(), true, nil
	default: // dopAbort
		return nil, false, fmt.Errorf("rewl: rank %d: run aborted by leader", w.rank)
	}
}

// fieldIndex returns v as an index in [0, n), or -1 when v is not an
// integer in that range.
func fieldIndex(v float64, n int) int {
	if v >= 0 && v < float64(n) && v == math.Trunc(v) {
		return int(v)
	}
	return -1
}

// ---------------------------------------------------------------------------
// Leader side.

// walkerReport is a walker's state as its owner last reported it.
type walkerReport struct {
	conv, flat bool
	energy     float64
}

type distLeader struct {
	ep      transport.Endpoint
	o       *ownerState // rank 0's own windows
	opts    Options
	windows []wanglandau.Window // the caller's ladder, fixed for the run
	size    int
	owner   []int // owning rank per window
	logf    func(format string, args ...any)

	// Inputs kept for elastic rollback (a fresh rebuild needs them).
	m           *alloy.Model
	seedCfg     lattice.Config
	newProposal ProposalFactory

	// Elastic recovery: with CheckpointDir + RejoinWait set and a backend
	// that supports rejoin, dead ranks are queued in pending and the round
	// loop attempts replacement + rollback before the next sweep.
	elastic  bool
	rejoiner transport.Rejoinable
	pending  []int

	// Coordination state, per window (and per walker slot where nested).
	// Walker slices are ragged once the adaptive controller has migrated.
	rankAlive []bool
	aliveG    [][]bool
	reported  [][]walkerReport
	frozenG   [][]float64 // last ln g consensus while a walker lived
	lastLnFG  []float64
	stages    []int
	replicaID [][]int // replica ids travel with configurations through exchanges
	extreme   []uint8 // per replica: 0 untouched, 1 last at the bottom window, 2 top
	coord     *rng.Source
	res       *Result

	// Adaptive controller state (adaptive.go). retired counts the walkers
	// the controller removed on purpose (not failures) and retiredSweeps
	// banks their sweeps so per-window totals stay exact; gen keys migrant
	// RNG streams; telem and prevSweeps are the per-round telemetry.
	gen           int
	retired       []int
	retiredSweeps []int64
	telem         []WindowTelemetry
	prevSweeps    []int64
}

// ownership maps each window to its owning rank.
func ownership(nWin, size int) []int {
	owner := make([]int, nWin)
	for r := 0; r < size; r++ {
		lo, hi := winRange(nWin, size, r)
		for wi := lo; wi < hi; wi++ {
			owner[wi] = r
		}
	}
	return owner
}

// newDistLeader builds rank 0's coordinator before any walker exists;
// rollbackLeader then builds or restores the walkers and the coordination
// state.
func newDistLeader(ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) *distLeader {
	size := ep.Size()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rejoiner, canRejoin := ep.(transport.Rejoinable)
	L := &distLeader{
		ep:          ep,
		opts:        opts,
		windows:     windows,
		size:        size,
		owner:       ownership(len(windows), size),
		logf:        logf,
		m:           m,
		seedCfg:     seedCfg,
		newProposal: newProposal,
		elastic:     canRejoin && opts.CheckpointDir != "" && opts.RejoinWait > 0,
		rejoiner:    rejoiner,
		rankAlive:   make([]bool, size),
		reported:    make([][]walkerReport, len(windows)),
		prevSweeps:  make([]int64, len(windows)),
		res:         &Result{},
	}
	for r := range L.rankAlive {
		L.rankAlive[r] = true
	}
	return L
}

func runDistLeader(ctx context.Context, ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	L := newDistLeader(ep, m, seedCfg, windows, newProposal, opts)
	size, logf := L.size, L.logf

	// Resume handshake: gather every rank's verifiable checkpoint rounds
	// and negotiate the newest round all of them hold. A mixed or partly
	// corrupt checkpoint set rolls the world back to the newest common
	// round — or starts fresh when nothing is universal — instead of
	// aborting.
	var ownRounds []int
	if opts.Resume && opts.CheckpointDir != "" {
		ownRounds = availableRounds(opts.CheckpointDir, 0, size)
	}
	lists := [][]int{ownRounds}
	anyOffer := len(ownRounds) > 0
	for r := 1; r < size; r++ {
		hello, err := ep.RecvCtx(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("rewl: leader awaiting rank %d hello: %w", r, err)
		}
		rs, ok := decodeRoundsList(hello)
		if !ok {
			for r2 := 1; r2 < size; r2++ {
				ep.SendCtx(ctx, r2, []float64{startAbort, 0}) //nolint:errcheck // aborting anyway
			}
			return nil, fmt.Errorf("rewl: malformed hello from rank %d", r)
		}
		anyOffer = anyOffer || len(rs) > 0
		lists = append(lists, rs)
	}
	startRound := 0
	if opts.Resume {
		startRound = newestCommonRound(lists)
	}
	resume := startRound > 0
	if resume {
		logf("rewl: resuming world from checkpoint round %d", startRound)
	} else if anyOffer {
		logf("rewl: no checkpoint round common to all %d ranks; starting fresh", size)
	}
	for r := 1; r < size; r++ {
		if err := ep.SendCtx(ctx, r, rollbackVerdict(startRound)); err != nil {
			return nil, fmt.Errorf("rewl: leader starting rank %d: %w", r, err)
		}
	}

	// Build the leader's own windows and (on resume) the coordination
	// state — the same code path elastic recovery replays mid-run — while
	// the workers build theirs, then collect their start acks.
	if err := L.rollbackLeader(startRound); err != nil {
		L.abortAll(ctx)
		return nil, err
	}
	for r := 1; r < size; r++ {
		if !L.startAcked(ctx, r) {
			L.rankDead(r)
		}
	}
	L.res.Resumed = resume
	L.res.Rounds = startRound

	for round := startRound; round < opts.MaxRounds; round++ {
		if ctx.Err() != nil {
			break
		}
		if len(L.pending) > 0 {
			if c, ok := L.recoverPending(ctx); ok {
				round = c
			}
		}
		L.res.Rounds = round + 1

		// Parallel sweep phase across ranks: command the remote owners,
		// sweep locally, then collect the post-merge reports in rank order.
		for r := 1; r < size; r++ {
			if L.rankAlive[r] {
				if err := ep.SendCtx(ctx, r, []float64{dopSweep, float64(round)}); err != nil {
					L.rankDead(r)
				}
			}
		}
		L.o.sweepAndMerge(ctx)
		if ctx.Err() != nil {
			// Cancelled mid-sweep: this round's sweeps are partial. Skip the
			// coordination phase and, critically, the checkpoint — a
			// checkpoint must only ever capture a full-round boundary.
			// Committing a partial round would make a resumed run diverge
			// from the uninterrupted trajectory (and in fleet mode would
			// hand the surviving replica a polluted resume point).
			break
		}
		L.parseReport(0, L.o.report())
		for r := 1; r < size; r++ {
			if !L.rankAlive[r] {
				continue
			}
			rep, err := ep.RecvCtx(ctx, r)
			if err != nil || !L.parseReport(r, rep) {
				L.rankDead(r)
			}
		}
		if size == 1 {
			L.collectTelemetry(round + 1)
		}

		// Replica exchange between adjacent windows; alternate pairing
		// parity so every boundary is exercised. Partners are drawn among
		// each window's live walkers.
		nWin := len(L.windows)
		for wi := round % 2; wi+1 < nWin; wi += 2 {
			ia, ib := aliveIdx(L.aliveG[wi]), aliveIdx(L.aliveG[wi+1])
			if len(ia) == 0 || len(ib) == 0 {
				continue
			}
			ka, kb := ia[L.coord.Intn(len(ia))], ib[L.coord.Intn(len(ib))]
			L.res.ExchangeTried++
			L.tryExchangeDist(ctx, wi, ka, kb)
		}
		// Round-trip accounting at the ladder's ends.
		if nWin > 1 {
			for _, k := range aliveIdx(L.aliveG[0]) {
				r := L.replicaID[0][k]
				if L.extreme[r] == 2 {
					L.res.RoundTrips++
				}
				L.extreme[r] = 1
			}
			for _, k := range aliveIdx(L.aliveG[nWin-1]) {
				if r := L.replicaID[nWin-1][k]; L.extreme[r] == 1 {
					L.extreme[r] = 2
				}
			}
		}
		// Stage transitions from the reported flatness flags (exchanges
		// swap configurations, never histograms, so the flags are current):
		// a window advances when all its surviving walkers are flat. A
		// degraded window (no survivors) is frozen and no longer gates
		// completion.
		allDone := true
		nConv := 0
		for wi := 0; wi < nWin; wi++ {
			ia := aliveIdx(L.aliveG[wi])
			if len(ia) == 0 {
				continue
			}
			conv, flat := true, true
			for _, k := range ia {
				conv = conv && L.reported[wi][k].conv
				flat = flat && L.reported[wi][k].flat
			}
			if conv {
				nConv++
				continue
			}
			allDone = false
			if flat {
				L.commandEndStage(ctx, wi)
				L.stages[wi]++
			}
		}
		liveRanks := 0
		for _, a := range L.rankAlive {
			if a {
				liveRanks++
			}
		}
		logf("rewl: round %d: %d/%d windows converged, %d walkers failed, %d/%d ranks live, %d rejoins",
			round+1, nConv, nWin, L.res.FailedWalkers, liveRanks, size, L.res.Rejoins)

		// Adaptive rebalancing at the round barrier: purely a function of
		// state that checkpoints capture, so a resumed run replays the same
		// decisions. It runs before the checkpoint below, which therefore
		// records the post-rebalance walker population.
		if opts.Adaptive.Enabled && !allDone && (round+1)%rebalanceEvery == 0 {
			if err := L.adapt(round + 1); err != nil {
				return nil, err
			}
		}

		// Skip the checkpoint while a dead rank awaits recovery: persisting
		// the degraded alive mask would poison the very rounds the rollback
		// negotiation is about to offer.
		if opts.CheckpointDir != "" && (round+1)%opts.CheckpointEvery == 0 && len(L.pending) == 0 {
			if err := L.checkpointAll(ctx, round+1); err != nil {
				L.abortAll(ctx)
				return nil, err
			}
		}

		if allDone {
			L.res.AllConverged = true
			break
		}
	}

	if ctx.Err() != nil {
		// The remote owners may have been cancelled too and would never
		// answer the final collection: release the ones still listening and
		// let their windows contribute the last consensus they shipped.
		L.abortAll(context.WithoutCancel(ctx))
		for r := 1; r < size; r++ {
			L.rankDead(r)
		}
	}
	return L.finish(ctx)
}

// startAcked waits for rank r's answer to its start verdict and reports
// whether the rank built its walkers and entered the command loop.
func (L *distLeader) startAcked(ctx context.Context, r int) bool {
	ack, err := L.ep.RecvCtx(ctx, r)
	return err == nil && len(ack) == 1 && ack[0] == 1
}

// rankDead marks a rank failed: every walker of its windows dies,
// degrading those windows to their last shipped consensus — the same
// semantics a window gets when all its walkers crash in-process. In
// elastic mode the rank is additionally queued for replacement; a
// successful rejoin rolls the whole world back and un-degrades it.
func (L *distLeader) rankDead(r int) {
	if !L.rankAlive[r] {
		return
	}
	L.rankAlive[r] = false
	lo, hi := winRange(len(L.windows), L.size, r)
	for wi := lo; wi < hi; wi++ {
		for k, a := range L.aliveG[wi] {
			if a {
				L.aliveG[wi][k] = false
				L.res.FailedWalkers++
			}
		}
	}
	if L.elastic {
		L.pending = append(L.pending, r)
	}
}

// rollbackLeader (re)builds the leader's own windows and the coordination
// state for round c: round 0 rebuilds everything fresh, any other round
// restores the leader's checkpoint for it. Shared by the start handshake
// and mid-run elastic recovery.
func (L *distLeader) rollbackLeader(c int) error {
	if c > 0 {
		ck, err := loadDistRound(L.opts.CheckpointDir, 0, c, L.size)
		if err != nil {
			return fmt.Errorf("rewl: leader restoring round %d: %w", c, err)
		}
		o, err := restoreOwnerState(L.m, L.windows, L.newProposal, L.opts, ck)
		if err != nil {
			return err
		}
		L.o = o
		return L.restoreCoord(ck)
	}
	nWin, nWalk := len(L.windows), L.opts.WalkersPerWindow
	lo, hi := winRange(nWin, L.size, 0)
	o, err := newOwnerState(L.m, L.seedCfg, L.windows, L.newProposal, L.opts, lo, hi)
	if err != nil {
		return err
	}
	L.o = o
	L.coord = rng.NewStreams(L.opts.Seed, nWin*nWalk+1)[nWin*nWalk]
	L.aliveG = make([][]bool, nWin)
	L.replicaID = make([][]int, nWin)
	L.frozenG = make([][]float64, nWin)
	L.lastLnFG = make([]float64, nWin)
	L.stages = make([]int, nWin)
	L.retired = make([]int, nWin)
	L.retiredSweeps = make([]int64, nWin)
	L.extreme = make([]uint8, nWin*nWalk)
	for wi := 0; wi < nWin; wi++ {
		L.aliveG[wi] = make([]bool, nWalk)
		L.replicaID[wi] = make([]int, nWalk)
		for k := 0; k < nWalk; k++ {
			L.aliveG[wi][k] = true
			L.replicaID[wi][k] = wi*nWalk + k
		}
		// Fresh walkers all start at the same ln f.
		L.lastLnFG[wi] = o.walkers[0][0].LnF()
	}
	L.res.ExchangeTried, L.res.ExchangeAccept, L.res.RoundTrips, L.res.FailedWalkers = 0, 0, 0, 0
	return nil
}

// recoverPending tries to replace every queued dead rank. For each one the
// leader waits up to RejoinWait for the transport to admit a replacement,
// then runs the rejoin protocol (rejoinRank). Returns the round the world
// rolled back to and whether any rejoin succeeded; ranks that found no
// replacement in time stay degraded.
func (L *distLeader) recoverPending(ctx context.Context) (int, bool) {
	pending := L.pending
	L.pending = nil
	c, recovered := 0, false
	for _, r := range pending {
		L.logf("rewl: rank %d dead; awaiting a replacement for up to %v", r, L.opts.RejoinWait)
		wctx, cancel := context.WithTimeout(ctx, L.opts.RejoinWait)
		err := L.rejoiner.AwaitRejoin(wctx, r)
		cancel()
		if err != nil {
			L.logf("rewl: no replacement for rank %d (%v); its windows stay degraded", r, err)
			continue
		}
		rc, err := L.rejoinRank(ctx, r)
		if err != nil {
			L.logf("rewl: rejoin of rank %d failed: %v; its windows stay degraded", r, err)
			continue
		}
		L.logf("rewl: rank %d rejoined; world rolled back to round %d", r, rc)
		recovered = true
		c = rc
	}
	return c, recovered
}

// rejoinRank runs the rejoin protocol for a replacement worker on rank r:
// receive its hello, re-negotiate the newest checkpoint round common to
// the leader, every survivor, and the replacement (counting rounds the
// leader can ship from its own dir copy of r's files), command the
// survivors to roll back, start the replacement (shipping the round's
// blob if it has no local copy), and finally roll the leader itself back.
// On success the rank is live again and the round loop replays from the
// returned round, bit-identically to a run that never lost it.
func (L *distLeader) rejoinRank(ctx context.Context, r int) (int, error) {
	hello, err := L.ep.RecvCtx(ctx, r)
	if err != nil {
		return 0, fmt.Errorf("awaiting replacement hello: %w", err)
	}
	replRounds, ok := decodeRoundsList(hello)
	if !ok {
		return 0, fmt.Errorf("malformed replacement hello")
	}
	dir := L.opts.CheckpointDir
	// Rounds the leader could ship to the replacement from its own copy of
	// rank r's files (shared checkpoint dir, or same host).
	shipRounds := availableRounds(dir, r, L.size)
	offer := map[int]bool{}
	for _, c := range replRounds {
		offer[c] = true
	}
	for _, c := range shipRounds {
		offer[c] = true
	}
	reachable := make([]int, 0, len(offer))
	for c := range offer {
		reachable = append(reachable, c)
	}

	lists := [][]int{availableRounds(dir, 0, L.size), reachable}
	for r2 := 1; r2 < L.size; r2++ {
		if r2 == r || !L.rankAlive[r2] {
			continue
		}
		if err := L.ep.SendCtx(ctx, r2, []float64{dopListRounds}); err != nil {
			L.rankDead(r2)
			continue
		}
		rep, err := L.ep.RecvCtx(ctx, r2)
		if err != nil {
			L.rankDead(r2)
			continue
		}
		rs, ok := decodeRoundsList(rep)
		if !ok {
			L.rankDead(r2)
			continue
		}
		lists = append(lists, rs)
	}
	c := newestCommonRound(lists)

	// Survivors first: a survivor that fails its rollback degrades (and
	// queues for its own recovery) but must not block this rejoin.
	for r2 := 1; r2 < L.size; r2++ {
		if r2 == r || !L.rankAlive[r2] {
			continue
		}
		if err := L.ep.SendCtx(ctx, r2, []float64{dopRollback, float64(c)}); err != nil {
			L.rankDead(r2)
			continue
		}
		ack, err := L.ep.RecvCtx(ctx, r2)
		if err != nil || len(ack) < 1 || ack[0] != 1 {
			L.rankDead(r2)
		}
	}

	// Start the replacement: local restore if it holds the round itself,
	// shipped blob if only the leader does, fresh build when c == 0.
	start := rollbackVerdict(c)
	if c > 0 {
		local := false
		for _, rc := range replRounds {
			if rc == c {
				local = true
				break
			}
		}
		if !local {
			blob, err := loadDistRoundBlob(dir, r, c)
			if err != nil {
				L.ep.SendCtx(ctx, r, []float64{startAbort, 0}) //nolint:errcheck // aborting anyway
				return 0, fmt.Errorf("loading round %d blob to ship: %w", c, err)
			}
			start = append([]float64{startShipped, float64(c), float64(len(blob))}, packBytes(blob)...)
		}
	}
	if err := L.ep.SendCtx(ctx, r, start); err != nil {
		return 0, fmt.Errorf("starting replacement: %w", err)
	}
	if !L.startAcked(ctx, r) {
		return 0, fmt.Errorf("replacement could not start from round %d", c)
	}

	if err := L.rollbackLeader(c); err != nil {
		return 0, err
	}
	L.rankAlive[r] = true
	L.res.Rejoins++
	return c, nil
}

// parseReport folds one rank's post-sweep report into the leader's global
// view. Returns false on a malformed report (treated as a dead rank).
func (L *distLeader) parseReport(r int, msg []float64) bool {
	lo, hi := winRange(len(L.windows), L.size, r)
	p := 0
	for wi := lo; wi < hi; wi++ {
		n, bins := len(L.aliveG[wi]), L.windows[wi].Bins
		if p+1+5*n+2+bins > len(msg) || int(msg[p]) != n {
			return false
		}
		p++
		if len(L.reported[wi]) != n {
			L.reported[wi] = make([]walkerReport, n)
		}
		for k := 0; k < n; k++ {
			// A walker dead in the global view stays dead — a rank resuming
			// from a stale checkpoint must not resurrect it.
			alive := msg[p] != 0 && L.aliveG[wi][k]
			if L.aliveG[wi][k] && !alive {
				L.res.FailedWalkers++
			}
			L.aliveG[wi][k] = alive
			L.reported[wi][k] = walkerReport{conv: msg[p+1] != 0, flat: msg[p+2] != 0, energy: msg[p+4]}
			p += 5
		}
		hasCons := msg[p] != 0
		lnF := msg[p+1]
		p += 2
		if hasCons && firstAlive(L.aliveG[wi]) >= 0 {
			L.frozenG[wi] = append(L.frozenG[wi][:0], msg[p:p+bins]...)
			L.lastLnFG[wi] = lnF
		}
		p += bins
	}
	return p == len(msg)
}

// The four owner calls below route a command to a window's owner: a
// function call for the leader's own windows, request/reply over the
// endpoint otherwise. A communication error marks the rank dead and
// returns ok=false.

func (L *distLeader) queryExchange(ctx context.Context, wi, k int, ePartner float64) (ok, binOK bool, lgSelf, lgPartner float64) {
	r := L.owner[wi]
	if r == 0 {
		b, s, p := L.o.queryExchange(wi, k, ePartner)
		return true, b, s, p
	}
	if !L.rankAlive[r] {
		return false, false, 0, 0
	}
	if err := L.ep.SendCtx(ctx, r, []float64{dopQueryExchange, float64(wi), float64(k), ePartner}); err != nil {
		L.rankDead(r)
		return false, false, 0, 0
	}
	rep, err := L.ep.RecvCtx(ctx, r)
	if err != nil || len(rep) != 3 {
		L.rankDead(r)
		return false, false, 0, 0
	}
	return true, rep[0] != 0, rep[1], rep[2]
}

func (L *distLeader) getCfg(ctx context.Context, wi, k int) (ok bool, e float64, cfg []float64) {
	r := L.owner[wi]
	if r == 0 {
		e, cfg = L.o.getCfg(wi, k)
		return true, e, cfg
	}
	if !L.rankAlive[r] {
		return false, 0, nil
	}
	if err := L.ep.SendCtx(ctx, r, []float64{dopGetCfg, float64(wi), float64(k)}); err != nil {
		L.rankDead(r)
		return false, 0, nil
	}
	rep, err := L.ep.RecvCtx(ctx, r)
	if err != nil || len(rep) < 1 {
		L.rankDead(r)
		return false, 0, nil
	}
	return true, rep[0], rep[1:]
}

func (L *distLeader) setCfg(ctx context.Context, wi, k int, e float64, cfg []float64) bool {
	r := L.owner[wi]
	if r == 0 {
		L.o.setCfg(wi, k, e, cfg)
		return true
	}
	if !L.rankAlive[r] {
		return false
	}
	msg := append([]float64{dopSetCfg, float64(wi), float64(k), e}, cfg...)
	if err := L.ep.SendCtx(ctx, r, msg); err != nil {
		L.rankDead(r)
		return false
	}
	return true
}

func (L *distLeader) commandEndStage(ctx context.Context, wi int) {
	r := L.owner[wi]
	if r == 0 {
		L.o.endStage(wi)
		return
	}
	if !L.rankAlive[r] {
		return
	}
	if err := L.ep.SendCtx(ctx, r, []float64{dopEndStage, float64(wi)}); err != nil {
		L.rankDead(r)
	}
}

// tryExchangeDist attempts a replica exchange between walker ka of window
// wi and walker kb of window wi+1: configurations swap if each walker's
// energy lies inside the other's window and the flat-histogram acceptance
// test passes. The bin checks and ln g lookups are computed at the owners,
// the acceptance decision (and its Float64 draw, consumed only when
// logA < 0) happens on the leader's coordinator stream, and an accepted
// swap moves the configurations through the leader; replica ids travel
// with them.
func (L *distLeader) tryExchangeDist(ctx context.Context, wi, ka, kb int) {
	ea, eb := L.reported[wi][ka].energy, L.reported[wi+1][kb].energy
	okA, binA, laSelf, laPartner := L.queryExchange(ctx, wi, ka, eb)
	if !okA {
		return
	}
	okB, binB, lbSelf, lbPartner := L.queryExchange(ctx, wi+1, kb, ea)
	if !okB {
		return
	}
	if !binA || !binB {
		return
	}
	// The association order is part of the trajectory:
	// lookup(da,ea) - lookup(da,eb) + lookup(db,eb) - lookup(db,ea).
	logA := laSelf - laPartner + lbSelf - lbPartner
	if logA < 0 && math.Log(L.coord.Float64()+1e-300) >= logA {
		return
	}
	okA, ea2, cfgA := L.getCfg(ctx, wi, ka)
	if !okA {
		return
	}
	okB, eb2, cfgB := L.getCfg(ctx, wi+1, kb)
	if !okB {
		return
	}
	if !L.setCfg(ctx, wi, ka, eb2, cfgB) || !L.setCfg(ctx, wi+1, kb, ea2, cfgA) {
		return
	}
	L.res.ExchangeAccept++
	L.replicaID[wi][ka], L.replicaID[wi+1][kb] = L.replicaID[wi+1][kb], L.replicaID[wi][ka]
	L.reported[wi][ka].energy, L.reported[wi+1][kb].energy = eb2, ea2
}

// checkpointAll persists a world-consistent checkpoint: every live rank
// writes its walkers for the same next-round, and the leader's file
// additionally carries the coordination state.
func (L *distLeader) checkpointAll(ctx context.Context, nextRound int) error {
	for r := 1; r < L.size; r++ {
		if L.rankAlive[r] {
			if err := L.ep.SendCtx(ctx, r, []float64{dopCheckpoint, float64(nextRound)}); err != nil {
				L.rankDead(r)
			}
		}
	}
	if err := L.o.saveDistCheckpoint(nextRound, 0, L.size, L.coordState()); err != nil {
		return fmt.Errorf("rewl: writing leader checkpoint: %w", err)
	}
	for r := 1; r < L.size; r++ {
		if !L.rankAlive[r] {
			continue
		}
		ack, err := L.ep.RecvCtx(ctx, r)
		if err != nil {
			L.rankDead(r)
			continue
		}
		if len(ack) < 1 || ack[0] != 1 {
			return fmt.Errorf("rewl: rank %d failed to write its checkpoint", r)
		}
	}
	return nil
}

func (L *distLeader) abortAll(ctx context.Context) {
	for r := 1; r < L.size; r++ {
		if L.rankAlive[r] {
			L.ep.SendCtx(ctx, r, []float64{dopAbort}) //nolint:errcheck // best effort
		}
	}
}

// finish collects the final per-window state from every surviving rank,
// merges the windows and assembles the Result. A degraded window
// contributes its frozen consensus; a window lost before any consensus
// existed contributes nothing (and the merge fails if that leaves a gap).
func (L *distLeader) finish(ctx context.Context) (*Result, error) {
	for r := 1; r < L.size; r++ {
		if L.rankAlive[r] {
			if err := L.ep.SendCtx(ctx, r, []float64{dopFinish}); err != nil {
				L.rankDead(r)
			}
		}
	}
	finals := make([][]float64, L.size)
	finals[0] = L.o.finishReport()
	for r := 1; r < L.size; r++ {
		if !L.rankAlive[r] {
			continue
		}
		rep, err := L.ep.RecvCtx(ctx, r)
		if err != nil {
			L.rankDead(r)
			continue
		}
		finals[r] = rep
	}

	nWin := len(L.windows)
	L.res.Windows = make([]WindowStat, nWin)
	L.res.Telemetry = L.telem
	var perWindow []*dos.LogDOS
	for wi := 0; wi < nWin; wi++ {
		r := L.owner[wi]
		win := L.windows[wi]
		binW := (win.EMax - win.EMin) / float64(win.Bins)
		var conv bool
		var acc, prop int64
		var lnF float64
		var logG []float64
		sweeps := L.retiredSweeps[wi]
		degraded := firstAlive(L.aliveG[wi]) < 0
		if !degraded && finals[r] != nil {
			p := 0
			lo, _ := winRange(nWin, L.size, r)
			for w2 := lo; w2 < wi; w2++ {
				p += 6 + L.windows[w2].Bins
			}
			if p+6+win.Bins > len(finals[r]) {
				degraded = true
			} else {
				conv = finals[r][p] != 0
				sweeps += int64(finals[r][p+1])
				acc = int64(finals[r][p+2])
				prop = int64(finals[r][p+3])
				lnF = finals[r][p+4]
				if finals[r][p+5] != 0 {
					logG = finals[r][p+6 : p+6+win.Bins]
				}
			}
		}
		if degraded {
			L.res.DegradedWindows++
			L.res.AllConverged = false
			lnF = L.lastLnFG[wi]
			if len(L.frozenG[wi]) > 0 {
				logG = L.frozenG[wi]
			}
		}
		if logG != nil {
			perWindow = append(perWindow, &dos.LogDOS{
				EMin:     win.EMin,
				BinWidth: binW,
				LogG:     append([]float64(nil), logG...),
			})
		}
		// Walkers the adaptive controller retired after migrating their
		// budget elsewhere are not failures.
		failed := -L.retired[wi]
		for _, a := range L.aliveG[wi] {
			if !a {
				failed++
			}
		}
		ratio := 0.0
		if prop > 0 {
			ratio = float64(acc) / float64(prop)
		}
		L.res.Windows[wi] = WindowStat{
			Window:        win,
			Converged:     !degraded && conv,
			Stages:        L.stages[wi],
			Sweeps:        sweeps,
			FinalLnF:      lnF,
			AcceptRatio:   ratio,
			Degraded:      degraded,
			FailedWalkers: failed,
		}
		L.res.TotalSweeps += sweeps
	}
	merged, err := dos.Merge(perWindow)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled before the windows overlapped; there is no
			// meaningful partial result to return.
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("rewl: merging windows: %w", err)
	}
	L.res.DOS = merged
	if err := ctx.Err(); err != nil {
		L.res.AllConverged = false
		return L.res, err
	}
	return L.res, nil
}
