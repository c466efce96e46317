package rewl

// Elastic-mode tests: negotiated rollback resume over mixed/corrupt
// checkpoint sets, and the full kill-then-rejoin recovery producing a
// bit-identical result with zero degraded windows.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// TestResumeRollsBackPastCorruptCheckpoint: truncating one rank's newest
// checkpoint file must drop that round from its offer, so the world
// resumes from the newest round every rank still verifiably holds — and
// the replayed run stays bit-identical to the uninterrupted one. A world
// of one has the same retained rounds and the same fallback.
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
			interrupted.MaxRounds = 3 // retained rounds 1, 2, 3 on every rank
			runDistChan(t, ranks, m, seed, wins, interrupted)

			for rank := 0; rank < ranks; rank++ {
				if got := availableRounds(dir, rank, ranks); len(got) != 3 || got[0] != 3 {
					t.Fatalf("rank %d offers %v before corruption, want [3 2 1]", rank, got)
				}
			}

			// Truncate the last rank's round-3 file: its checksum no longer
			// matches the manifest, so round 3 must vanish from its offer.
			victim := ranks - 1
			path := distRoundPath(dir, victim, 3)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
			if got := availableRounds(dir, victim, ranks); len(got) != 2 || got[0] != 2 {
				t.Fatalf("rank %d offers %v after truncation, want [2 1]", victim, got)
			}

			// Resume: newest common round is 2, not 3 — and not an abort.
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
				t.Error("leader did not log the negotiated rollback to round 2")
			}
			got.Resumed = ref.Resumed
			sameResult(t, got, ref)
		})
	}
}

// TestResumeStartsFreshWithoutCommonRound: when the ranks' retained sets
// share no round at all, resume must fall back to a fresh start rather
// than abort — still bit-identical to the never-checkpointed run.
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

	// Wipe every checkpoint rank 1 holds: no round is common any more.
	for _, c := range availableRounds(dir, 1, 2) {
		os.Remove(distRoundPath(dir, 1, c))
	}

	resumed := base
	resumed.CheckpointDir = dir
	resumed.CheckpointEvery = 1
	resumed.Resume = true
	got := runDistChan(t, 2, m, seed, wins, resumed)
	if got.Resumed {
		t.Error("run with no common round flagged as resumed")
	}
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
	// spawn the replacement worker. The replacement runs with Resume=false
	// and no local state of its own beyond the shared dir — the negotiation
	// must still find round 2 and the leader must ship or restore it.
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
				if _, err := RunDistributed(context.Background(), world.Endpoint(1), m, seed, wins, swapFactory(m), opts); err != nil {
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
