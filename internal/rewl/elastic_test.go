package rewl

// Elastic-mode tests: resume past corrupt checkpoint rounds and after
// degraded rounds, and the full kill-then-rejoin recovery producing a
// bit-identical result with zero degraded windows.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// TestResumeRollsBackPastCorruptCheckpoint: truncating the newest world
// file makes it fail verification, so the world resumes from the round
// before it — and the replayed run stays bit-identical to the
// uninterrupted one. Worlds of one and two ranks write the same rounds and
// fall back the same way.
func TestResumeRollsBackPastCorruptCheckpoint(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(43))
	base := Options{Seed: 44, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-3}}

	ref, err := Run(m, seed, wins, swapFactory(m), base)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllConverged || ref.Rounds < 4 {
		t.Fatalf("reference run unusable (converged=%v rounds=%d)", ref.AllConverged, ref.Rounds)
	}

	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("world%d", ranks), func(t *testing.T) {
			dir := t.TempDir()
			interrupted := base
			interrupted.CheckpointDir = dir
			interrupted.CheckpointEvery = 1
			interrupted.MaxRounds = 3 // retained rounds 1, 2, 3
			runDistChan(t, ranks, m, seed, wins, interrupted)
			if got := savedRounds(dir); !reflect.DeepEqual(got, []int{3, 2, 1}) {
				t.Fatalf("rounds %v before corruption, want [3 2 1]", got)
			}

			// Truncate round 3: its length no longer matches its header.
			path := roundPath(dir, 3)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
			if _, err := readRound(dir, 3); err == nil {
				t.Fatal("the truncated round verifies")
			}

			// Resume: the newest round that verifies is 2 — and not an abort.
			var mu sync.Mutex
			var logs []string
			resumed := base
			resumed.CheckpointDir = dir
			resumed.CheckpointEvery = 1
			resumed.Resume = true
			resumed.Logf = func(f string, a ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(f, a...))
				mu.Unlock()
			}
			got := runDistChan(t, ranks, m, seed, wins, resumed)
			if !got.Resumed {
				t.Error("run not flagged as resumed")
			}
			mu.Lock()
			sawRound := false
			for _, l := range logs {
				if strings.Contains(l, "resuming world from checkpoint round 2") {
					sawRound = true
				}
			}
			mu.Unlock()
			if !sawRound {
				t.Error("leader did not log the rollback to round 2")
			}
			got.Resumed = ref.Resumed
			sameResult(t, got, ref)
		})
	}
}

// TestResumeStartsFreshWithoutCommonRound: when every retained round
// fails verification, resume must fall back to a fresh start rather than
// abort — still bit-identical to the never-checkpointed run.
func TestResumeStartsFreshWithoutCommonRound(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(45))
	base := Options{Seed: 46, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-3}}

	ref, err := Run(m, seed, wins, swapFactory(m), base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.CheckpointDir = dir
	interrupted.CheckpointEvery = 1
	interrupted.MaxRounds = 2
	runDistChan(t, 2, m, seed, wins, interrupted)

	// Flip one payload byte of every retained round: none verifies.
	for _, c := range savedRounds(dir) {
		b, err := os.ReadFile(roundPath(dir, c))
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 1
		if err := os.WriteFile(roundPath(dir, c), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if HasCheckpoint(dir) {
		t.Fatal("a corrupted round still verifies")
	}

	resumed := base
	resumed.CheckpointDir = dir
	resumed.CheckpointEvery = 1
	resumed.Resume = true
	got := runDistChan(t, 2, m, seed, wins, resumed)
	if got.Resumed {
		t.Error("run with no round that verifies flagged as resumed")
	}
	sameResult(t, got, ref)
}

// TestResumeAfterDegradedRounds: a 2-rank world checkpointing every round
// loses rank 1 after the round-3 checkpoint and, with no rejoin, runs on
// degraded to round 5. Restarting the full world with Resume goes back to
// round 3, the last round every rank was alive in, and ends bit-identical
// to the run that never lost a rank.
func TestResumeAfterDegradedRounds(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(49))
	base := Options{Seed: 50, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-3}}

	ref, err := Run(m, seed, wins, swapFactory(m), base)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllConverged || ref.Rounds < 7 {
		t.Fatalf("reference run unusable (converged=%v rounds=%d)", ref.AllConverged, ref.Rounds)
	}

	dir := t.TempDir()
	world := transport.NewChanWorld(2)
	degraded := base
	degraded.CheckpointDir, degraded.CheckpointEvery, degraded.MaxRounds = dir, 1, 5
	// The leader logs round 4 after its reports and exchanges, before its
	// checkpoint: rank 1 fails there, so round 3's is the last it joins.
	degraded.Logf = func(f string, a ...any) {
		if strings.HasPrefix(fmt.Sprintf(f, a...), "rewl: round 4:") {
			world.FailRank(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunDistributed(context.Background(), world.Endpoint(1), m, seed, wins, swapFactory(m), degraded) //nolint:errcheck // rank 1 dies
	}()
	res, err := RunDistributed(context.Background(), world.Endpoint(0), m, seed, wins, swapFactory(m), degraded)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 || res.DegradedWindows != 1 {
		t.Fatalf("degraded run: %d rounds, %d degraded windows, want 5 and 1", res.Rounds, res.DegradedWindows)
	}

	var mu sync.Mutex
	var logs []string
	resumed := base
	resumed.CheckpointDir, resumed.CheckpointEvery, resumed.Resume = dir, 1, true
	resumed.Logf = func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}
	got := runDistChan(t, 2, m, seed, wins, resumed)
	if !got.Resumed {
		t.Error("run not flagged as resumed")
	}
	if len(logs) == 0 || logs[0] != "rewl: resuming world from checkpoint round 3" {
		t.Errorf("first log line %q, want the resume from round 3", logs)
	}
	got.Resumed = ref.Resumed
	sameResult(t, got, ref)
}

// TestRunDistributedKillRejoin: the acceptance scenario on the chan
// backend — kill a rank mid-run, let a replacement rejoin, and the final
// result must be bit-identical to the uninterrupted run with zero
// degraded windows and the rejoin counted.
func TestRunDistributedKillRejoin(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(47))
	base := Options{Seed: 48, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-3}}

	ref, err := Run(m, seed, wins, swapFactory(m), base)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllConverged || ref.Rounds < 5 {
		t.Fatalf("reference run unusable (converged=%v rounds=%d)", ref.AllConverged, ref.Rounds)
	}

	world := transport.NewChanWorld(2)
	dir := t.TempDir()
	logCh := make(chan string, 256)
	opts := base
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 2
	opts.RejoinWait = 30 * time.Second
	opts.Logf = func(f string, a ...any) {
		select {
		case logCh <- fmt.Sprintf(f, a...):
		default:
		}
	}

	var wg sync.WaitGroup
	var leaderRes *Result
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderRes, leaderErr = RunDistributed(context.Background(), world.Endpoint(0), m, seed, wins, swapFactory(m), opts)
	}()
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		// The victim dies mid-run; its error is expected.
		RunDistributed(context.Background(), world.Endpoint(1), m, seed, wins, swapFactory(m), opts) //nolint:errcheck
	}()

	// Script: after round 3 the leader has written the round-2 checkpoint;
	// kill rank 1, then once the leader starts waiting for a replacement
	// (and the victim goroutine has fully exited), revive the rank and
	// spawn the replacement worker. The replacement runs without Resume or
	// a checkpoint directory: the leader must ship it its part of round 2.
	roundsSeen := 0
	killed := false
	for line := range logCh {
		if strings.HasPrefix(line, "rewl: round ") {
			roundsSeen++
			if roundsSeen == 3 && !killed {
				killed = true
				world.FailRank(1)
			}
		}
		if strings.Contains(line, "awaiting a replacement") {
			<-victimDone
			world.Revive(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunDistributed(context.Background(), world.Endpoint(1), m, seed, wins, swapFactory(m), base); err != nil {
					t.Errorf("replacement worker: %v", err)
				}
			}()
			break
		}
	}

	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	}
	if leaderRes == nil {
		t.Fatal("leader returned no result")
	}
	if leaderRes.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", leaderRes.Rejoins)
	}
	if leaderRes.DegradedWindows != 0 {
		t.Errorf("DegradedWindows = %d after a successful rejoin, want 0", leaderRes.DegradedWindows)
	}
	if !leaderRes.AllConverged {
		t.Error("rejoined run did not converge")
	}
	sameResult(t, leaderRes, ref)
}

// firstSweepGarbled is rank 1's endpoint with its first round report
// replaced by [42]: a rank the leader declares dead for a malformed
// report while its connection stays up.
type firstSweepGarbled struct {
	transport.Endpoint
	sweeping, garbled bool
}

func (e *firstSweepGarbled) RecvCtx(ctx context.Context, src int) ([]float64, error) {
	msg, err := e.Endpoint.RecvCtx(ctx, src)
	if err == nil && len(msg) > 0 && msg[0] == dopSweep {
		e.sweeping = true
	}
	return msg, err
}

func (e *firstSweepGarbled) SendCtx(ctx context.Context, dst int, data []float64) error {
	if e.sweeping && !e.garbled {
		e.garbled = true
		data = []float64{42}
	}
	return e.Endpoint.SendCtx(ctx, dst, data)
}

// TestRejoinWaitBoundsAConnectedDeadRank: a rank the leader declares dead
// for a malformed report while it is still connected is aborted, so its
// RunDistributed returns. In elastic mode it is also queued for rejoin,
// but no replacement hello ever comes: the leader gives up after
// RejoinWait and finishes with the rank's windows degraded. Without
// rejoin the leader finishes at once.
func TestRejoinWaitBoundsAConnectedDeadRank(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(47))
	base := Options{Seed: 48, WalkersPerWindow: 2, ExchangeInterval: 20, MaxRounds: 5, WL: wanglandau.Options{LnFFinal: 1e-3}}
	elastic := base
	elastic.CheckpointDir, elastic.CheckpointEvery, elastic.RejoinWait = t.TempDir(), 1, time.Second

	for name, opts := range map[string]Options{"elastic": elastic, "no rejoin": base} {
		t.Run(name, func(t *testing.T) {
			// The deadline only keeps a regression from hanging the suite.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			world := transport.NewChanWorld(2)
			rank1 := make(chan error, 1)
			go func() {
				_, err := RunDistributed(ctx, &firstSweepGarbled{Endpoint: world.Endpoint(1)}, m, seed, wins, swapFactory(m), opts)
				rank1 <- err
			}()
			start := time.Now()
			res, err := RunDistributed(ctx, world.Endpoint(0), m, seed, wins, swapFactory(m), opts)
			if took := time.Since(start); took > opts.RejoinWait+time.Second {
				t.Errorf("leader returned after %v, want within RejoinWait + 1 s", took)
			}
			if err != nil {
				t.Fatalf("leader: %v", err)
			}
			if res.DegradedWindows != 1 || !res.Windows[1].Degraded {
				t.Errorf("%d degraded windows (window 1 degraded: %v), want rank 1's window 1 alone", res.DegradedWindows, res.Windows[1].Degraded)
			}
			select {
			case err := <-rank1:
				if err == nil || !strings.Contains(err.Error(), "aborted by leader") {
					t.Errorf("rank 1 returned %v, want the leader's abort", err)
				}
			case <-time.After(time.Second):
				t.Error("rank 1's RunDistributed did not return")
			}
		})
	}
}
