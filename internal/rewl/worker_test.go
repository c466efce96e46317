package rewl

import (
	"context"
	"math"
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

// malformedCommands are leader commands no leader sends: each names a
// walker or window rank 1 of workerLadder's world does not own, or has a
// length or field its opcode does not allow.
var malformedCommands = []struct {
	name string
	msg  []float64
}{
	{"query without fields", []float64{dopQueryExchange}},
	{"setCfg without fields", []float64{dopSetCfg, 1}},
	{"query of another rank's window", []float64{dopQueryExchange, 0, 0, 0}},
	{"getCfg of a walker past the window", []float64{dopGetCfg, 1, 2}},
	{"getCfg of a fractional walker", []float64{dopGetCfg, 1, 0.5}},
	{"setCfg of a NaN window", []float64{dopSetCfg, math.NaN(), 0, -1, 0, 1}},
	{"endStage past the ladder", []float64{dopEndStage, 2}},
	{"checkpoint of a negative round", []float64{dopCheckpoint, -1}},
	{"rollback to an infinite round", []float64{dopRollback, math.Inf(1)}},
	{"sweep with a trailing field", []float64{dopSweep, 0, 0}},
	{"finish with a field", []float64{dopFinish, 0}},
	{"opcode zero", []float64{0}},
	{"opcode NaN", []float64{math.NaN()}},
	{"empty", []float64{}},
}

// TestWorkerRejectsMalformedCommands: a worker handed a command no leader
// sends returns an error instead of panicking on it.
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
	m, seed, wins, opts := workerLadder(f)
	opts.CheckpointDir = f.TempDir()
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
	add(dopQueryExchange, 1, 1, -0.1)
	add(dopGetCfg, 1, 0)
	add(append([]float64{dopSetCfg, 1, 0, -0.2}, cfg...)...)
	add(dopEndStage, 1)
	add(dopCheckpoint, 3)
	add(dopListRounds)
	add(dopRollback, 0)
	add(dopFinish)
	add(dopAbort)
	for _, tc := range malformedCommands {
		add(tc.msg...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := newOwnerState(m, seed, wins, swapFactory(m), opts, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		w := &distWorker{o: o, m: m, seedCfg: seed, windows: wins, newProposal: swapFactory(m), opts: opts, rank: 1, size: 2}
		w.command(context.Background(), packBytes(data)) //nolint:errcheck // only a panic fails
	})
}
