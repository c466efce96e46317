package rewl

// The REWL round engine. One leader-driven loop runs every REWL at every
// world size: windows are partitioned into contiguous blocks, one block per
// transport rank (goroutines over the in-process backend, OS processes over
// TCP). The sweep command makes every owner run its windows' whole round in
// parallel — sweep, merge ln g within each window, report, and end the stage
// of every window whose surviving walkers are all flat — and the report
// carries each window's consensus ln g and each walker's energy. Rank 0 then
// makes the decisions that cross windows from those reports alone: it owns
// the coordinator RNG stream and consumes it in a fixed order (one Intn per
// side of each live pair, one Float64 only when a bin-compatible exchange
// has logA < 0), evaluates each exchange on its copy of the two windows'
// consensus, and asks the owners only to move the configurations of accepted
// exchanges (getCfg, setCfg). The Result, too, is built from the reports of
// the last completed round; finish only releases the workers. Rank 0 runs
// its own windows' commands through the same command handler the workers
// run; that is the only seam. Floats travel as raw IEEE-754 bits, so every
// decision input — and therefore every decision — is the same bits however
// the windows are placed: a world of one rank (RunContext) and a world of N
// yield the same Result, telemetry included, for the same seed, cancelled
// or not.
//
// Fault model: a rank that drops (TCP peer disconnect, injected crash) is
// handled like a failed MPI rank — the leader marks every walker of the
// rank's windows dead, and those windows degrade to their last shipped
// ln g consensus, exactly the degraded-window semantics walker faults get
// inside a rank. Checkpoints are one world file per round, written by the
// leader from every rank's part and only in rounds the whole world
// completed (checkpoint.go), so a killed worker can rejoin a running world
// (RejoinWait) or the world can restart with Resume set.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// Protocol opcodes, leader → owner. Every command is a []float64 message;
// replies (where a command has one) are likewise []float64.
// Opcodes 2, 5 and 9 are retired: exchanges are decided on the leader's
// copy of the reported consensus, owners end their own stages, and the
// leader alone reads the checkpoint directory.
const (
	dopSweep      = 1  // [op, round] → round report (ownerState.round), none if cancelled
	dopGetCfg     = 3  // [op, wi, k] → [E, cfg...]
	dopSetCfg     = 4  // [op, wi, k, E, cfg...] (no reply)
	dopCheckpoint = 6  // [op, nextRound] → [nbytes, packed…], the owner's checkpoint part
	dopFinish     = 7  // [op] (no reply); the owner returns
	dopAbort      = 8  // [op] (no reply); the owner returns an error
	dopRollback   = 10 // [op, verdict…] → [ok]; rebuild the owner from a start verdict
)

// Start-handshake verdicts, leader → worker, replying to the worker's
// hello ([0], which says only that the worker is ready for its verdict):
//
//	[startFresh, 0]                     build fresh walkers, start at round 0
//	[startShipped, c, nbytes, packed…]  restore round c from the shipped part
//	[startAbort, 0]                     abort
//
// The worker answers the verdict with [1] once its walkers exist, or [0]
// when it could not build them, so the leader never waits on a rank that
// will not enter the command loop. Verdict 1 is retired: it restored a
// round from the worker's own files.
const (
	startAbort   = -1
	startFresh   = 0
	startShipped = 2
)

// winRange returns the contiguous window block [lo, hi) owned by rank.
func winRange(nWin, size, rank int) (lo, hi int) {
	return rank * nWin / size, (rank + 1) * nWin / size
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
// cancellation the leader drops the interrupted round — its reports,
// coordination and checkpoint — and returns the Result of the last
// completed round (Rounds counting the interrupted one) alongside ctx's
// error: what that round's checkpoint holds and Resume restarts from. A run
// cancelled before it completed a round since its start or its last rejoin
// rollback returns (nil, ctx's error). No rank counts as failed because
// the run was cancelled.
//
// With Options.CheckpointDir set, the leader writes one world file every
// CheckpointEvery rounds from every rank's part; Options.Resume restarts
// the world from the newest round that verifies, bit-identically to the
// uninterrupted run, on a world of any size. Workers never read or write
// the directory.
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
	case startShipped:
		ck, err := decodeShipped(start[2:], rank, size, int(start[1]))
		if err != nil {
			return nil, fmt.Errorf("rewl: rank %d decoding shipped checkpoint: %w", rank, err)
		}
		return restoreOwnerState(m, windows, newProposal, opts, ck)
	default:
		return nil, fmt.Errorf("rewl: rank %d: leader aborted the start", rank)
	}
}

func runDistWorker(ctx context.Context, ep transport.Endpoint, m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options) error {
	rank, size := ep.Rank(), ep.Size()

	// Start handshake: hello, then the leader's start verdict. A
	// replacement worker joining a running world speaks the exact same
	// handshake — the leader's recovery path answers it instead of the
	// startup path.
	if err := ep.SendCtx(ctx, 0, []float64{0}); err != nil {
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

// distWorker is one rank's side of the command loop: its windows' owner
// state and what a rollback needs to rebuild it. Workers run it behind the
// endpoint; the leader embeds it and runs its own windows' commands
// through the same command method.
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
// dopSetCfg's configuration payload follows its four fields, and a
// dopRollback verdict may carry a shipped part past its two.
var commandLen = [...]int{
	dopSweep: 2, dopGetCfg: 3, dopSetCfg: 4,
	dopCheckpoint: 2, dopFinish: 1, dopAbort: 1, dopRollback: 3,
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
	if n := commandLen[op]; len(msg) != n && (op != dopSetCfg && op != dopRollback || len(msg) < n) {
		return nil, false, fmt.Errorf("rewl: rank %d received opcode %d with %d fields", w.rank, op, len(msg))
	}
	o := w.o
	switch op {
	case dopGetCfg, dopSetCfg:
		wi, k := fieldIndex(msg[1]-float64(o.lo), len(o.walkers)), -1
		if wi >= 0 {
			k = fieldIndex(msg[2], len(o.walkers[wi]))
		}
		if k < 0 || o.walkers[wi][k] == nil {
			return nil, false, fmt.Errorf("rewl: rank %d does not own walker %v of window %v", w.rank, msg[2], msg[1])
		}
	case dopCheckpoint:
		if fieldIndex(msg[1], math.MaxInt32) < 0 {
			return nil, false, fmt.Errorf("rewl: rank %d received round %v", w.rank, msg[1])
		}
	}

	switch op {
	case dopSweep:
		return o.round(ctx), false, nil
	case dopGetCfg:
		e, cfg := o.getCfg(int(msg[1]), int(msg[2]))
		return append([]float64{e}, cfg...), false, nil
	case dopSetCfg:
		o.setCfg(int(msg[1]), int(msg[2]), msg[3], msg[4:])
		return nil, false, nil
	case dopCheckpoint:
		part, err := o.checkpointPart(int(msg[1]), w.rank, w.size).shipped()
		if err != nil {
			return []float64{-1}, false, fmt.Errorf("rewl: rank %d encoding its checkpoint part: %w", w.rank, err)
		}
		return part, false, nil
	case dopRollback:
		// Elastic recovery: rebuild this rank's state from the verdict —
		// its part of the leader's checkpoint, or fresh — so the world
		// replays from a consistent snapshot after a dead rank was
		// replaced.
		o2, rerr := ownerFromStart(msg[1:], w.m, w.seedCfg, w.windows, w.newProposal, w.opts, w.rank, w.size)
		if rerr != nil {
			return []float64{0}, false, fmt.Errorf("rewl: rank %d rolling back: %w", w.rank, rerr)
		}
		w.o = o2
		return []float64{1}, false, nil
	case dopFinish:
		return nil, true, nil
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
