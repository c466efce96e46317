package rewl

// Leader side.

import (
	"context"
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// windowReport is a window's state as its owner last reported it (see
// ownerState.round): converged and lnF after the round's stage transition,
// ended the ln f a stage ended at (0 if none).
type windowReport struct {
	conv               bool
	ended, lnF         float64
	sweeps, acc, prop  int64
	flatness, coverage float64
}

// convBefore reports whether the window had converged before the round's
// stage transition: a window that ended a stage had not.
func (r windowReport) convBefore() bool { return r.conv && r.ended == 0 }

// distLeader is rank 0. Its embedded distWorker is rank 0's own windows
// (o) on the caller's ladder (windows), with the inputs a fresh rebuild
// needs.
type distLeader struct {
	distWorker
	ep    transport.Endpoint
	owner []int // owning rank per window
	logf  func(format string, args ...any)

	// localReply is rank 0's reply to the command post ran last.
	localReply []float64
	// cancelled marks a rank left unreached because the run was cancelled;
	// the round in progress does not complete. done and doneG are the last
	// completed round's snapshot, nil after the start or a rollback.
	cancelled bool
	done      *Result
	doneG     [][]float64

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
	energy    [][]float64 // per walker, as reported and moved by exchanges
	winRep    []windowReport
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
		distWorker: distWorker{m: m, seedCfg: seedCfg, windows: windows, newProposal: newProposal, opts: opts, size: size},
		ep:         ep,
		owner:      ownership(len(windows), size),
		logf:       logf,
		elastic:    canRejoin && opts.CheckpointDir != "" && opts.RejoinWait > 0,
		rejoiner:   rejoiner,
		rankAlive:  make([]bool, size),
		energy:     make([][]float64, len(windows)),
		winRep:     make([]windowReport, len(windows)),
		prevSweeps: make([]int64, len(windows)),
		res:        &Result{},
	}
	for r := range L.rankAlive {
		L.rankAlive[r] = true
	}
	return L
}

func runDistLeader(ctx context.Context, ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) (*Result, error) {
	L := newDistLeader(ep, m, seedCfg, windows, newProposal, opts)
	size := L.size
	for r := 1; r < size; r++ {
		if _, err := ep.RecvCtx(ctx, r); err != nil {
			return nil, fmt.Errorf("rewl: leader awaiting rank %d hello: %w", r, err)
		}
	}

	// Resume from the newest checkpoint round that verifies and belongs to
	// this run; every worker gets its part of it shipped with its start
	// verdict.
	var ck *distCheckpoint
	if opts.Resume && opts.CheckpointDir != "" {
		var err error
		if ck, err = L.newestCheckpoint(); err != nil {
			for r := 1; r < size; r++ {
				ep.SendCtx(ctx, r, []float64{startAbort, 0}) //nolint:errcheck // aborting anyway
			}
			return nil, err
		}
	}
	startRound := 0
	if ck != nil {
		startRound = ck.Round
		L.logf("rewl: resuming world from checkpoint round %d", startRound)
	}
	for r := 1; r < size; r++ {
		start, err := L.startVerdict(ck, r)
		if err == nil {
			err = ep.SendCtx(ctx, r, start)
		}
		if err != nil {
			return nil, fmt.Errorf("rewl: leader starting rank %d: %w", r, err)
		}
	}

	// Build the leader's own windows and (on resume) the coordination
	// state — the same code path elastic recovery replays mid-run — while
	// the workers build theirs, then collect their start acks.
	if err := L.rollbackLeader(ck); err != nil {
		L.release(ctx, dopAbort)
		return nil, err
	}
	for r := 1; r < size; r++ {
		if !L.startAcked(ctx, r) {
			L.rankDead(r)
		}
	}
	L.res.Resumed = ck != nil
	L.res.Rounds = startRound

	for round := startRound; round < opts.MaxRounds && ctx.Err() == nil; round++ {
		if len(L.pending) > 0 {
			if c, ok := L.recoverPending(ctx); ok {
				round = c
			}
		}
		stop, err := L.round(ctx, round)
		if err != nil {
			L.release(ctx, dopAbort)
			return nil, err
		}
		if stop {
			break
		}
	}
	L.release(ctx, dopFinish)
	return L.finish(ctx)
}

// round runs round `round` of the REWL loop: every owner runs its windows'
// round, then the leader makes the decisions that cross windows from the
// reports — replica exchange, round-trip and stage accounting, adaptive
// rebalancing — checkpoints, and snapshots the Result of the completed
// round. stop reports a cancelled round or a converged ladder.
func (L *distLeader) round(ctx context.Context, round int) (stop bool, err error) {
	L.res.Rounds = round + 1

	// Parallel sweep phase across ranks. Rank 0 is posted last: posting to
	// it runs the leader's own windows' round in place, while the other
	// ranks sweep theirs.
	for r := L.size - 1; r >= 0; r-- {
		L.post(ctx, r, []float64{dopSweep, float64(round)})
	}
	// A round whose sweep phase was cancelled — rank 0's owner reports
	// nothing, or a rank's report is lost to the cancellation — is dropped:
	// no coordination and, critically, no checkpoint, which must only ever
	// capture a full-round boundary. Committing a partial round would make
	// a resumed run diverge from the uninterrupted trajectory (and in fleet
	// mode would hand the surviving replica a polluted resume point). What
	// the dropped round left in the leader's state is never read: the
	// Result is the last completed round's snapshot.
	if L.localReply == nil {
		return true, nil
	}
	for r := 0; r < L.size; r++ {
		if rep, ok := L.collect(ctx, r); ok && !L.parseReport(r, rep) {
			L.rankDead(r)
		}
	}
	if L.cancelled {
		return true, nil
	}
	L.collectTelemetry(round + 1)

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
	// Stage accounting from the reports: the owners ended the stages
	// themselves. A degraded window (no survivors) is frozen and no longer
	// gates completion.
	allDone := true
	nConv := 0
	for wi := 0; wi < nWin; wi++ {
		if firstAlive(L.aliveG[wi]) < 0 {
			continue
		}
		if L.winRep[wi].convBefore() {
			nConv++
			continue
		}
		allDone = false
		if L.winRep[wi].ended != 0 {
			L.stages[wi]++
		}
	}
	liveRanks := 0
	for _, a := range L.rankAlive {
		if a {
			liveRanks++
		}
	}
	L.logf("rewl: round %d: %d/%d windows converged, %d walkers failed, %d/%d ranks live, %d rejoins",
		round+1, nConv, nWin, L.res.FailedWalkers, liveRanks, L.size, L.res.Rejoins)

	// Adaptive rebalancing at the round barrier: purely a function of
	// state that checkpoints capture, so a resumed run replays the same
	// decisions. It runs before the checkpoint below, which therefore
	// records the post-rebalance walker population.
	if L.opts.Adaptive.Enabled && !allDone && (round+1)%rebalanceEvery == 0 {
		if err := L.adapt(round + 1); err != nil {
			return true, err
		}
	}

	// A round in which a rank is dead writes no checkpoint (see
	// checkpoint): the newest one stays a round the whole world completed,
	// which resume and rejoin roll back to. Exchanges or a checkpoint cut
	// by the cancellation drop the round too.
	if L.opts.CheckpointDir != "" && (round+1)%L.opts.CheckpointEvery == 0 && !L.cancelled {
		if err := L.checkpoint(ctx, round+1); err != nil {
			return true, err
		}
	}
	if L.cancelled {
		return true, nil
	}

	if allDone {
		L.res.AllConverged = true
	}
	L.snapshot()
	return allDone, nil
}

// startAcked waits for rank r's answer to its start verdict and reports
// whether the rank built its walkers and entered the command loop.
func (L *distLeader) startAcked(ctx context.Context, r int) bool {
	ack, err := L.ep.RecvCtx(ctx, r)
	return err == nil && len(ack) == 1 && ack[0] == 1
}

// rankDead marks a rank failed: every walker of its windows dies,
// degrading those windows to their last shipped consensus — the same
// semantics a window gets when all its walkers crash in-process. The rank
// is sent dopAbort, best effort: one declared dead while still connected
// (a malformed report or checkpoint part, a timed-out reply) would
// otherwise wait for commands until its context ends. In elastic mode the
// rank is additionally queued for replacement; a successful rejoin rolls
// the whole world back and un-degrades it.
func (L *distLeader) rankDead(r int) {
	if !L.rankAlive[r] {
		return
	}
	L.rankAlive[r] = false
	if r != 0 {
		L.ep.SendCtx(context.Background(), r, []float64{dopAbort}) //nolint:errcheck // best effort
	}
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

// lost handles a rank the leader could not reach: under a cancelled
// context the run is ending and the rank is not at fault, so the round in
// progress is marked cancelled; otherwise the rank is dead.
func (L *distLeader) lost(ctx context.Context, r int) {
	if ctx.Err() != nil {
		L.cancelled = true
		return
	}
	L.rankDead(r)
}

// rollbackLeader (re)builds the leader's own windows and the coordination
// state: fresh for a nil checkpoint, else restored from the world
// checkpoint ck. Shared by the start handshake and mid-run elastic
// recovery. The reports of the rounds before it are discarded: until a
// round completes, there is no Result.
func (L *distLeader) rollbackLeader(ck *distCheckpoint) error {
	L.done, L.doneG = nil, nil
	if ck != nil {
		o, err := restoreOwnerState(L.m, L.windows, L.newProposal, L.opts, ck.part(0, L.size))
		if err != nil {
			return err
		}
		L.o = o
		L.restoreCoord(&ck.Coord)
		return nil
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

// recoverPending tries to replace every queued dead rank through the
// rejoin protocol (rejoinRank). Returns the round the world rolled back to
// and whether any rejoin succeeded; ranks not replaced in time stay
// degraded.
func (L *distLeader) recoverPending(ctx context.Context) (int, bool) {
	pending := L.pending
	L.pending = nil
	c, recovered := 0, false
	for _, r := range pending {
		L.logf("rewl: rank %d dead; awaiting a replacement for up to %v", r, L.opts.RejoinWait)
		rc, err := L.rejoinRank(ctx, r)
		if err != nil {
			L.logf("rewl: rank %d not replaced: %v; its windows stay degraded", r, err)
			continue
		}
		L.logf("rewl: rank %d rejoined; world rolled back to round %d", r, rc)
		recovered = true
		c = rc
	}
	return c, recovered
}

// rejoinRank runs the rejoin protocol for a replacement worker on rank r:
// within RejoinWait, the transport admits the replacement and its hello
// arrives; then the leader reads the newest checkpoint round, rolls every
// survivor back to it with its part shipped in the command (dopRollback),
// starts the replacement from its part, and finally rolls itself back.
// Since no round is written while a rank is dead, that round is the last
// one the whole world completed, or round 0 when none was written. On
// success the rank is live again and the round loop replays from the
// returned round, bit-identically to a run that never lost it.
func (L *distLeader) rejoinRank(ctx context.Context, r int) (int, error) {
	// A rank declared dead while its connection is up counts as admitted
	// at once but never says hello, so the hello shares the deadline.
	wctx, cancel := context.WithTimeout(ctx, L.opts.RejoinWait)
	err := L.rejoiner.AwaitRejoin(wctx, r)
	if err == nil {
		_, err = L.ep.RecvCtx(wctx, r)
	}
	cancel()
	if err != nil {
		return 0, fmt.Errorf("awaiting a replacement's hello: %w", err)
	}
	ck, err := L.newestCheckpoint()
	if err != nil {
		L.ep.SendCtx(ctx, r, []float64{startAbort, 0}) //nolint:errcheck // aborting anyway
		return 0, err
	}

	// Survivors first: a survivor that fails its rollback degrades (and
	// queues for its own recovery) but must not block this rejoin.
	for r2 := 1; r2 < L.size; r2++ {
		if r2 == r || !L.rankAlive[r2] {
			continue
		}
		start, err := L.startVerdict(ck, r2)
		if err != nil {
			return 0, err
		}
		if ack, ok := L.call(ctx, r2, append([]float64{dopRollback}, start...)); ok && ack[0] != 1 {
			L.rankDead(r2)
		}
	}

	start, err := L.startVerdict(ck, r)
	if err == nil {
		err = L.ep.SendCtx(ctx, r, start)
	}
	if err != nil {
		return 0, fmt.Errorf("starting replacement: %w", err)
	}
	if !L.startAcked(ctx, r) {
		return 0, fmt.Errorf("replacement could not start")
	}

	if err := L.rollbackLeader(ck); err != nil {
		return 0, err
	}
	L.rankAlive[r] = true
	L.res.Rejoins++
	if ck == nil {
		return 0, nil
	}
	return ck.Round, nil
}

// startVerdict is the start verdict that puts rank r at the world
// checkpoint ck: its part shipped, or a fresh build when ck is nil.
func (L *distLeader) startVerdict(ck *distCheckpoint, r int) ([]float64, error) {
	if ck == nil {
		return []float64{startFresh, 0}, nil
	}
	part, err := ck.part(r, L.size).shipped()
	if err != nil {
		return nil, err
	}
	return append([]float64{startShipped, float64(ck.Round)}, part...), nil
}

// parseReport folds one rank's round report into the leader's global
// view. Returns false on a malformed report (treated as a dead rank).
func (L *distLeader) parseReport(r int, msg []float64) bool {
	lo, hi := winRange(len(L.windows), L.size, r)
	p := 0
	for wi := lo; wi < hi; wi++ {
		n, bins := len(L.aliveG[wi]), L.windows[wi].Bins
		if p+1+2*n+reportWindowFields+bins > len(msg) || int(msg[p]) != n {
			return false
		}
		p++
		if len(L.energy[wi]) != n {
			L.energy[wi] = make([]float64, n)
		}
		for k := 0; k < n; k++ {
			// A walker dead in the global view stays dead — a rank resuming
			// from a stale checkpoint must not resurrect it.
			alive := msg[p] != 0 && L.aliveG[wi][k]
			if L.aliveG[wi][k] && !alive {
				L.res.FailedWalkers++
			}
			L.aliveG[wi][k] = alive
			L.energy[wi][k] = msg[p+1]
			p += 2
		}
		f := msg[p : p+reportWindowFields]
		p += reportWindowFields
		rep := windowReport{conv: f[0] != 0, ended: f[1], lnF: f[2], sweeps: int64(f[3]),
			flatness: f[4], coverage: f[5], acc: int64(f[6]), prop: int64(f[7])}
		L.winRep[wi] = rep
		if firstAlive(L.aliveG[wi]) >= 0 {
			// A later report replaces the slice, never writes into it,
			// so a completed round's snapshot can keep it.
			L.frozenG[wi] = msg[p : p+bins : p+bins]
			L.lastLnFG[wi] = rep.lnF
			if rep.ended != 0 {
				L.lastLnFG[wi] = rep.ended // ln f before the stage transition
			}
		}
		p += bins
	}
	return p == len(msg)
}

// post delivers an owner command to rank r: for rank 0 it runs the command
// on the leader's own windows through the same distWorker.command the
// workers run, and keeps the reply for collect; any other rank gets it over
// the endpoint. It reports false for a dead rank, and hands a rank the
// command cannot be delivered to lost.
func (L *distLeader) post(ctx context.Context, r int, msg []float64) bool {
	if !L.rankAlive[r] {
		return false
	}
	if r == 0 {
		var err error
		L.localReply, _, err = L.command(ctx, msg)
		return err == nil
	}
	if err := L.ep.SendCtx(ctx, r, msg); err != nil {
		L.lost(ctx, r)
		return false
	}
	return true
}

// collect returns rank r's reply to the command posted to it last. A lost
// or empty reply goes to lost: every command the leader collects has a
// non-empty reply.
func (L *distLeader) collect(ctx context.Context, r int) ([]float64, bool) {
	if !L.rankAlive[r] {
		return nil, false
	}
	if r == 0 {
		return L.localReply, true
	}
	rep, err := L.ep.RecvCtx(ctx, r)
	if err != nil || len(rep) == 0 {
		L.lost(ctx, r)
		return nil, false
	}
	return rep, true
}

// call posts a command to rank r and collects its reply.
func (L *distLeader) call(ctx context.Context, r int, msg []float64) ([]float64, bool) {
	if !L.post(ctx, r, msg) {
		return nil, false
	}
	return L.collect(ctx, r)
}

// windowDOS is ln g over window win, on the grid every walker of the
// window has (dos.New's bin width).
func windowDOS(win wanglandau.Window, logG []float64) *dos.LogDOS {
	return &dos.LogDOS{EMin: win.EMin, BinWidth: (win.EMax - win.EMin) / float64(win.Bins), LogG: logG}
}

// tryExchangeDist attempts a replica exchange between walker ka of window
// wi and walker kb of window wi+1: configurations swap if each walker's
// energy lies inside the other's window and the flat-histogram acceptance
// test passes. The leader decides on the reported energies and its copy of
// the two windows' consensus ln g, which after the merge is every surviving
// walker's ln g to the bit (unvisited bins read as 0). The acceptance draw
// (a Float64, consumed only when logA < 0) comes from the coordinator
// stream, and an accepted swap moves the configurations through the
// leader; replica ids travel with them.
func (L *distLeader) tryExchangeDist(ctx context.Context, wi, ka, kb int) {
	ea, eb := L.energy[wi][ka], L.energy[wi+1][kb]
	da, db := windowDOS(L.windows[wi], L.frozenG[wi]), windowDOS(L.windows[wi+1], L.frozenG[wi+1])
	if da.Bin(eb) < 0 || db.Bin(ea) < 0 {
		return
	}
	// The association order is part of the trajectory.
	logA := lookup(da, ea) - lookup(da, eb) + lookup(db, eb) - lookup(db, ea)
	if logA < 0 && math.Log(L.coord.Float64()+1e-300) >= logA {
		return
	}
	repA, ok := L.call(ctx, L.owner[wi], []float64{dopGetCfg, float64(wi), float64(ka)})
	if !ok {
		return
	}
	repB, ok := L.call(ctx, L.owner[wi+1], []float64{dopGetCfg, float64(wi + 1), float64(kb)})
	if !ok {
		return
	}
	if !L.post(ctx, L.owner[wi], append([]float64{dopSetCfg, float64(wi), float64(ka)}, repB...)) ||
		!L.post(ctx, L.owner[wi+1], append([]float64{dopSetCfg, float64(wi + 1), float64(kb)}, repA...)) {
		return
	}
	L.res.ExchangeAccept++
	L.replicaID[wi][ka], L.replicaID[wi+1][kb] = L.replicaID[wi+1][kb], L.replicaID[wi][ka]
	L.energy[wi][ka], L.energy[wi+1][kb] = repB[0], repA[0]
}

// allRanksAlive reports whether no rank is dead.
func (L *distLeader) allRanksAlive() bool {
	for _, a := range L.rankAlive {
		if !a {
			return false
		}
	}
	return true
}

// release sends every live worker its last command, finish or abort; it
// has no reply, and goes out even when the run was cancelled.
func (L *distLeader) release(ctx context.Context, op float64) {
	for r := 1; r < L.size; r++ {
		if L.rankAlive[r] {
			L.ep.SendCtx(context.WithoutCancel(ctx), r, []float64{op}) //nolint:errcheck // best effort
		}
	}
}

// snapshot records the Result of the rounds completed so far from what the
// leader holds after a round: every WindowStat, the counters and the
// telemetry snapshot, and in doneG the ln g each window contributes to the
// merged DOS. A window with survivors reports the convergence and ln f of
// its last report (after that round's stage transition), its sweeps from
// the telemetry snapshot and its acceptance ratio from the report's move
// counters; a degraded window keeps the ln g and ln f of its last live
// round and the sweeps of the walkers the adaptive controller retired.
func (L *distLeader) snapshot() {
	res := *L.res
	res.Windows = make([]WindowStat, len(L.windows))
	res.Telemetry = L.telem
	for wi, win := range L.windows {
		// Walkers the adaptive controller retired after migrating their
		// budget elsewhere are not failures.
		failed := -L.retired[wi]
		for _, a := range L.aliveG[wi] {
			if !a {
				failed++
			}
		}
		st := WindowStat{Window: win, Stages: L.stages[wi], FailedWalkers: failed}
		if firstAlive(L.aliveG[wi]) < 0 {
			st.Degraded, st.FinalLnF, st.Sweeps = true, L.lastLnFG[wi], L.retiredSweeps[wi]
			res.DegradedWindows++
			res.AllConverged = false
		} else {
			rep := L.winRep[wi]
			st.Converged, st.FinalLnF, st.Sweeps = rep.conv, rep.lnF, L.telem[wi].Sweeps
			if rep.prop > 0 {
				st.AcceptRatio = float64(rep.acc) / float64(rep.prop)
			}
		}
		res.Windows[wi] = st
		res.TotalSweeps += st.Sweeps
	}
	L.done, L.doneG = &res, append([][]float64(nil), L.frozenG...)
}

// finish merges the last completed round's windows into its Result; Rounds
// counts the rounds started, a cancelled one included. A window lost before
// any consensus existed contributes nothing (and the merge fails if that
// leaves a gap).
func (L *distLeader) finish(ctx context.Context) (*Result, error) {
	res := L.done
	if res == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("rewl: no round to run: the run starts at round %d of MaxRounds %d", L.res.Rounds, L.opts.MaxRounds)
	}
	res.Rounds = L.res.Rounds
	var perWindow []*dos.LogDOS
	for wi, logG := range L.doneG {
		if len(logG) > 0 {
			perWindow = append(perWindow, windowDOS(L.windows[wi], logG))
		}
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
	res.DOS = merged
	if err := ctx.Err(); err != nil {
		res.AllConverged = false
		return res, err
	}
	return res, nil
}
