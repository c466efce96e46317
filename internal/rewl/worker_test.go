package rewl

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// workerLadder is the two-window, 8-site problem the worker command tests
// run rank 1 of a two-rank world on: rank 1 owns window 1 only.
func workerLadder(t testing.TB) (*alloy.Model, lattice.Config, []wanglandau.Window, Options) {
	t.Helper()
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(71))
	opts := Options{Seed: 72, WalkersPerWindow: 2, ExchangeInterval: 5, WL: wanglandau.Options{LnFFinal: 1e-3}}
	opts.setDefaults()
	return m, seed, wins, opts
}

// The retired opcodes: 2 queried one side of an exchange, 5 ended a
// window's stage, 9 listed the rank's checkpoint rounds. No leader sends
// them any more.
const (
	retiredQueryExchange = 2
	retiredEndStage      = 5
	retiredListRounds    = 9
)

// malformedCommands are leader commands no leader sends: each names a
// walker or window rank 1 of workerLadder's world does not own, has a
// length or field its opcode does not allow, or uses an opcode that does
// not exist (unknown).
var malformedCommands = []struct {
	name    string
	msg     []float64
	unknown bool
}{
	{"query without fields", []float64{retiredQueryExchange}, true},
	{"setCfg without fields", []float64{dopSetCfg, 1}, false},
	{"query of another rank's window", []float64{retiredQueryExchange, 0, 0, 0}, true},
	{"getCfg of a walker past the window", []float64{dopGetCfg, 1, 2}, false},
	{"getCfg of a fractional walker", []float64{dopGetCfg, 1, 0.5}, false},
	{"setCfg of a NaN window", []float64{dopSetCfg, math.NaN(), 0, -1, 0, 1}, false},
	{"endStage past the ladder", []float64{retiredEndStage, 2}, true},
	{"checkpoint of a negative round", []float64{dopCheckpoint, -1}, false},
	{"rollback to an infinite round", []float64{dopRollback, startShipped, math.Inf(1), 0}, false},
	{"rollback without a verdict", []float64{dopRollback, startFresh}, false},
	{"rollback to an aborted start", []float64{dopRollback, startAbort, 0}, false},
	{"listRounds", []float64{retiredListRounds}, true},
	{"sweep with a trailing field", []float64{dopSweep, 0, 0}, false},
	{"finish with a field", []float64{dopFinish, 0}, false},
	{"opcode zero", []float64{0}, true},
	{"opcode NaN", []float64{math.NaN()}, true},
	{"empty", []float64{}, false},
}

// TestWorkerRejectsMalformedCommands: a worker handed a command no leader
// sends returns an error instead of panicking on it; an opcode that does
// not exist, retired ones included, is refused as unknown.
func TestWorkerRejectsMalformedCommands(t *testing.T) {
	m, seed, wins, opts := workerLadder(t)
	ctx := context.Background()
	for _, tc := range malformedCommands {
		t.Run(tc.name, func(t *testing.T) {
			world := transport.NewChanWorld(2)
			done := make(chan error, 1)
			go func() {
				_, err := RunDistributed(ctx, world.Endpoint(1), m, seed, wins, swapFactory(m), opts)
				done <- err
			}()
			leader := world.Endpoint(0)
			if _, err := leader.RecvCtx(ctx, 1); err != nil { // hello
				t.Fatal(err)
			}
			if err := leader.SendCtx(ctx, 1, []float64{startFresh, 0}); err != nil {
				t.Fatal(err)
			}
			if ack, err := leader.RecvCtx(ctx, 1); err != nil || len(ack) != 1 || ack[0] != 1 {
				t.Fatalf("start ack %v, %v", ack, err)
			}
			if err := leader.SendCtx(ctx, 1, tc.msg); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("worker accepted %v and finished cleanly", tc.msg)
				}
				if tc.unknown && !strings.Contains(err.Error(), "unknown opcode") {
					t.Fatalf("worker refused %v with %q, want an unknown opcode", tc.msg, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("worker still running after %v", tc.msg)
			}
		})
	}
}

// FuzzWorkerCommand: whatever command vector reaches a worker — the fuzz
// input read as big-endian float64 words — executing it on a fresh rank 1
// of workerLadder's world never panics.
func FuzzWorkerCommand(f *testing.F) {
	capMinimize()
	m, seed, wins, opts := workerLadder(f)
	newWorker := func(t testing.TB) *distWorker {
		o, err := newOwnerState(m, seed, wins, swapFactory(m), opts, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &distWorker{o: o, m: m, seedCfg: seed, windows: wins, newProposal: swapFactory(m), opts: opts, rank: 1, size: 2}
	}
	add := func(msg ...float64) {
		b, err := unpackBytes(msg, 8*len(msg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	cfg := make([]float64, len(seed))
	for i, sp := range seed {
		cfg[i] = float64(sp)
	}
	add(dopSweep, 0)
	add(retiredQueryExchange, 1, 1, -0.1)
	add(dopGetCfg, 1, 0)
	add(append([]float64{dopSetCfg, 1, 0, -0.2}, cfg...)...)
	add(retiredEndStage, 1)
	add(dopCheckpoint, 3)
	// The leader's rollback ships the rank's dopCheckpoint reply back to it.
	part, _, err := newWorker(f).command(context.Background(), []float64{dopCheckpoint, 3})
	if err != nil {
		f.Fatal(err)
	}
	add(append([]float64{dopRollback, startShipped, 3}, part...)...)
	add(part...)
	add(retiredListRounds)
	add(dopRollback, startFresh, 0)
	add(dopFinish)
	add(dopAbort)
	for _, tc := range malformedCommands {
		add(tc.msg...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newWorker(t).command(context.Background(), packBytes(data)) //nolint:errcheck // only a panic fails
	})
}

// TestCancelledRoundEndsNoStage: an owner's round under a cancelled
// context reports nothing and ends no stage, even where every walker is
// flat, so every walker's ln f and histogram stay as they were.
func TestCancelledRoundEndsNoStage(t *testing.T) {
	m, seed, wins, opts := workerLadder(t)
	o, err := newOwnerState(m, seed, wins, swapFactory(m), opts, 0, len(wins))
	if err != nil {
		t.Fatal(err)
	}
	allFlat := func() bool {
		for _, ws := range o.walkers {
			for _, w := range ws {
				if !w.Flat() || w.Converged() {
					return false
				}
			}
		}
		return true
	}
	// Sweep without the round's stage transitions until every window would
	// end its stage, then merge so the round's own merge changes nothing.
	for phase := 0; !allFlat(); phase++ {
		if phase == 200 {
			t.Fatal("walkers not all flat after 200 sweep phases; the test exercises nothing")
		}
		o.sweepPhase(context.Background())
	}
	for i, ws := range o.walkers {
		mergeWindowDOS(aliveIn(ws, o.alive[i]))
	}
	snapshot := func() (st []wanglandau.WalkerState) {
		for _, ws := range o.walkers {
			for _, w := range ws {
				st = append(st, w.State())
			}
		}
		return st
	}
	before := snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := o.round(ctx)

	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Error("a cancelled round changed walker state")
	}
	if rep != nil {
		t.Errorf("a cancelled round reported %d fields, want none", len(rep))
	}
}
