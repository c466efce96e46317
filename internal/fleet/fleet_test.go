package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepthermo/internal/chaos"
)

func newStore(t *testing.T, dir, replica string, ttl time.Duration) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Replica: replica, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClaimRace: many replicas race to claim the same brand-new job;
// exactly one must win, and the winner's token must be 1.
func TestClaimRace(t *testing.T) {
	dir := t.TempDir()
	const replicas = 8
	stores := make([]*Store, replicas)
	for i := range stores {
		stores[i] = newStore(t, dir, "r"+string(rune('a'+i)), time.Second)
	}
	if err := stores[0].Enqueue("job-x", nil); err != nil {
		t.Fatal(err)
	}

	var wins atomic.Int64
	var winToken atomic.Uint64
	var wg sync.WaitGroup
	for _, s := range stores {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			token, tookOver, err := s.Acquire("job-x")
			if err == nil {
				wins.Add(1)
				winToken.Store(token)
				if tookOver {
					t.Errorf("fresh claim reported as takeover")
				}
				return
			}
			if !errors.Is(err, ErrHeld) {
				t.Errorf("loser got %v, want ErrHeld", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d replicas won the claim, want exactly 1", wins.Load())
	}
	if winToken.Load() != 1 {
		t.Fatalf("first token = %d, want 1", winToken.Load())
	}
}

// TestTakeoverRace: an expired lease is raced by two replicas; exactly
// one takes over, and the fencing token strictly increases.
func TestTakeoverRace(t *testing.T) {
	dir := t.TempDir()
	owner := newStore(t, dir, "owner", 30*time.Millisecond)
	a := newStore(t, dir, "a", 30*time.Millisecond)
	b := newStore(t, dir, "b", 30*time.Millisecond)

	if err := owner.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	token, _, err := owner.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the lease expire unrenewed

	var wins atomic.Int64
	var winToken atomic.Uint64
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			tok, tookOver, err := s.Acquire("j")
			if err == nil {
				wins.Add(1)
				winToken.Store(tok)
				if !tookOver {
					t.Errorf("expiry takeover reported as fresh claim")
				}
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("loser got %v, want ErrHeld", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d replicas took over, want exactly 1", wins.Load())
	}
	if winToken.Load() <= token {
		t.Fatalf("takeover token %d not greater than expired token %d", winToken.Load(), token)
	}
}

// TestHeartbeatKeepsLeaseAtTTLBoundary: a lease renewed at a cadence
// inside the TTL stays held past several TTL multiples, and becomes
// claimable within one TTL of the last renewal once heartbeats stop.
func TestHeartbeatKeepsLeaseAtTTLBoundary(t *testing.T) {
	dir := t.TempDir()
	// Long enough that a loaded machine's scheduling delays (tens of
	// milliseconds while other test binaries run) stay well inside the
	// TTL/3 renewal margin.
	ttl := 300 * time.Millisecond
	owner := newStore(t, dir, "owner", ttl)
	rival := newStore(t, dir, "rival", ttl)

	if err := owner.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	token, _, err := owner.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}

	// Heartbeat at TTL/3 for 4×TTL; the rival polls for takeover the whole
	// time and must never win.
	stop := make(chan struct{})
	rivalDone := make(chan struct{})
	var rivalWon atomic.Bool
	go func() {
		defer close(rivalDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := rival.Acquire("j"); err == nil {
				rivalWon.Store(true)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(4 * ttl)
	for time.Now().Before(deadline) {
		if err := owner.Heartbeat("j", token); err != nil {
			close(stop)
			<-rivalDone
			t.Fatalf("heartbeat while renewing: %v", err)
		}
		time.Sleep(ttl / 3)
	}
	// A rival Acquire still in flight holds the lease file under its grab
	// name, where PeekLease cannot see it: wait for the poller to exit.
	close(stop)
	<-rivalDone
	if rivalWon.Load() {
		t.Fatal("rival acquired the lease despite live heartbeats")
	}

	// Stop heartbeating: the rival must be able to take over once the TTL
	// has elapsed, and not before the lease's recorded expiry.
	lease, ok := owner.PeekLease("j")
	if !ok {
		t.Fatal("lease unreadable after renewals")
	}
	if _, _, err := rival.Acquire("j"); !errors.Is(err, ErrHeld) {
		t.Fatalf("takeover before expiry: err=%v, want ErrHeld", err)
	}
	time.Sleep(time.Until(lease.Expires) + 10*time.Millisecond)
	newTok, tookOver, err := rival.Acquire("j")
	if err != nil || !tookOver {
		t.Fatalf("takeover after expiry failed: token=%d tookOver=%v err=%v", newTok, tookOver, err)
	}
	if newTok <= token {
		t.Fatalf("takeover token %d not greater than %d", newTok, token)
	}
}

// TestFencedStaleOwnerCommitRejected: after a takeover, the previous
// owner's fenced commit must be rejected without running its body, and
// its state write must not reach the shared store.
func TestFencedStaleOwnerCommitRejected(t *testing.T) {
	dir := t.TempDir()
	ttl := 40 * time.Millisecond
	stale := newStore(t, dir, "stale", ttl)
	succ := newStore(t, dir, "succ", ttl)

	if err := stale.Enqueue("j", json.RawMessage(`{"v":"orig"}`)); err != nil {
		t.Fatal(err)
	}
	staleTok, _, err := stale.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttl + 20*time.Millisecond)
	succTok, tookOver, err := succ.Acquire("j")
	if err != nil || !tookOver {
		t.Fatalf("successor takeover failed: %v", err)
	}
	if err := succ.WriteState(State{Job: "j", Phase: Running, Payload: json.RawMessage(`{"v":"succ"}`)}, succTok); err != nil {
		t.Fatalf("successor state write: %v", err)
	}

	ran := false
	err = stale.WithLease("j", staleTok, func() error { ran = true; return nil })
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale commit err = %v, want ErrFenced", err)
	}
	if ran {
		t.Fatal("fenced commit body ran")
	}
	if err := stale.WriteState(State{Job: "j", Phase: Done, Payload: json.RawMessage(`{"v":"stale"}`)}, staleTok); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale state write err = %v, want ErrFenced", err)
	}
	if stale.FenceRejections() == 0 {
		t.Error("fence rejection not counted")
	}

	st, err := succ.GetState("j")
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Payload) != `{"v":"succ"}` || st.Fence != succTok {
		t.Fatalf("shared state clobbered by stale owner: %+v", st)
	}

	// The stale owner's heartbeat must also report the fence loss.
	if err := stale.Heartbeat("j", staleTok); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale heartbeat err = %v, want ErrFenced", err)
	}
}

// TestNoDoubleOwnership hammers claim/heartbeat/release across replicas
// and jobs with an aggressive TTL and asserts the protocol's safety
// property: every fenced write that reaches shared state carries a token
// that is monotonic per job and owned by exactly one replica. A lease is
// NOT wall-clock mutual exclusion — a holder stalled past its TTL loses
// the job to a takeover and is fenced on its next operation (that path
// fires routinely here under -race slowdowns) — so the invariant is
// checked on the writes the fence actually guards, via a shared log
// appended to only inside WithLease bodies.
func TestNoDoubleOwnership(t *testing.T) {
	dir := t.TempDir()
	ttl := 50 * time.Millisecond
	const replicas = 4
	jobIDs := []string{"j0", "j1", "j2"}
	seed := newStore(t, dir, "seed", ttl)
	for _, id := range jobIDs {
		if err := seed.Enqueue(id, nil); err != nil {
			t.Fatal(err)
		}
	}

	type entry struct {
		replica string
		token   uint64
	}
	var logMu sync.Mutex
	writeLog := make(map[string][]entry) // job → fenced writes, in commit order

	var wg sync.WaitGroup
	deadline := time.Now().Add(600 * time.Millisecond)
	stores := make([]*Store, replicas)
	for r := 0; r < replicas; r++ {
		s := newStore(t, dir, "r"+string(rune('0'+r)), ttl)
		stores[r] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, id := range jobIDs {
					token, _, err := s.Acquire(id)
					if err != nil {
						continue
					}
					// Commit a few fenced writes, renewing in between. Any
					// ErrFenced means a rival took over after our TTL lapsed
					// (legitimate under scheduling stalls): abandon the job.
					fenced := false
					for i := 0; i < 3 && !fenced; i++ {
						err := s.WithLease(id, token, func() error {
							logMu.Lock()
							writeLog[id] = append(writeLog[id], entry{s.Replica(), token})
							logMu.Unlock()
							return nil
						})
						switch {
						case errors.Is(err, ErrFenced):
							fenced = true
						case err != nil:
							t.Errorf("fenced write: %v", err)
						default:
							time.Sleep(2 * time.Millisecond)
							if err := s.Heartbeat(id, token); errors.Is(err, ErrFenced) {
								fenced = true
							}
						}
					}
					if !fenced {
						if err := s.Release(id, token); err != nil && !errors.Is(err, ErrFenced) {
							t.Errorf("release: %v", err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, id := range jobIDs {
		entries := writeLog[id]
		total += len(entries)
		owner := make(map[uint64]string)
		last := uint64(0)
		for i, e := range entries {
			if e.token < last {
				t.Errorf("job %s: write %d carries token %d after token %d committed — a fenced stale write reached shared state", id, i, e.token, last)
			}
			last = e.token
			if prev, ok := owner[e.token]; ok && prev != e.replica {
				t.Errorf("job %s: token %d used by both %s and %s — two live leases", id, e.token, prev, e.replica)
			}
			owner[e.token] = e.replica
		}
	}
	if total == 0 {
		t.Fatal("no fenced writes committed; hammer exercised nothing")
	}
	var rejections int64
	for _, s := range stores {
		rejections += s.FenceRejections()
	}
	t.Logf("fenced writes=%d rejections=%d", total, rejections)
}

// TestTornLeaseRecovery: a torn (truncated) lease renewal — injected via
// a chaos TornLease fault — must not cost the rightful owner its lease:
// the next heartbeat recovers through the fence file and restores the
// lease content.
func TestTornLeaseRecovery(t *testing.T) {
	dir := t.TempDir()
	plan := chaos.NewPlan(chaos.Fault{Rank: 0, Step: 2, Kind: chaos.TornLease})
	s, err := Open(Config{Dir: dir, Replica: "owner", TTL: time.Second, Plan: plan, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	token, _, err := s.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat("j", token); err != nil { // seq 1: clean
		t.Fatal(err)
	}
	if err := s.Heartbeat("j", token); err != nil { // seq 2: torn write
		t.Fatal(err)
	}
	if _, ok := s.PeekLease("j"); ok {
		t.Fatal("lease readable after torn write — fault did not land")
	}
	if err := s.Heartbeat("j", token); err != nil { // seq 3: recovers via fence
		t.Fatalf("heartbeat after torn lease: %v", err)
	}
	l, ok := s.PeekLease("j")
	if !ok || l.Token != token || l.Owner != "owner" {
		t.Fatalf("lease not restored after torn write: %+v ok=%v", l, ok)
	}
}

// TestLoseHeartbeatFaultExpiresLease: a chaos LoseHeartbeat fault
// silences renewals; the lease expires under the owner and a rival takes
// over, after which the owner is fenced.
func TestLoseHeartbeatFaultExpiresLease(t *testing.T) {
	dir := t.TempDir()
	ttl := 60 * time.Millisecond
	plan := chaos.NewPlan(chaos.Fault{Rank: 0, Step: 1, Kind: chaos.LoseHeartbeat})
	owner, err := Open(Config{Dir: dir, Replica: "owner", TTL: ttl, Plan: plan, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	rival := newStore(t, dir, "rival", ttl)

	if err := owner.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	token, _, err := owner.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}
	// Every heartbeat from seq 1 on is lost; they report success but renew
	// nothing.
	deadline := time.Now().Add(2 * ttl)
	for time.Now().Before(deadline) {
		if err := owner.Heartbeat("j", token); err != nil {
			t.Fatalf("lost heartbeat surfaced an error: %v", err)
		}
		time.Sleep(ttl / 4)
	}
	rTok, tookOver, err := rival.Acquire("j")
	if err != nil || !tookOver {
		t.Fatalf("rival takeover after lost heartbeats: token=%d tookOver=%v err=%v", rTok, tookOver, err)
	}
	if err := owner.WithLease("j", token, func() error { return nil }); !errors.Is(err, ErrFenced) {
		t.Fatalf("paused owner's commit err = %v, want ErrFenced", err)
	}
}

// TestStaleWriteFaultFencedAfterTakeover: the StaleWrite chaos fault
// stalls a commit past lease expiry; with a rival standing by to take
// over, the late commit must be fence-rejected.
func TestStaleWriteFaultFencedAfterTakeover(t *testing.T) {
	dir := t.TempDir()
	ttl := 50 * time.Millisecond
	plan := chaos.NewPlan(chaos.Fault{Rank: 0, Step: 1, Kind: chaos.StaleWrite})
	owner, err := Open(Config{Dir: dir, Replica: "owner", TTL: ttl, Plan: plan, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	rival := newStore(t, dir, "rival", ttl)
	if err := owner.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	token, _, err := owner.Acquire("j")
	if err != nil {
		t.Fatal(err)
	}

	// Rival keeps polling; it wins the lease the moment the owner's stall
	// lets the TTL lapse.
	go func() {
		for {
			if _, _, err := rival.Acquire("j"); err == nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ran := false
	err = owner.WithLease("j", token, func() error { ran = true; return nil })
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale write err = %v (ran=%v), want ErrFenced", err, ran)
	}
}

// TestSweepOrphans: a grab file abandoned by a crashed mutator is
// restored to the canonical path once it is old enough, making the job
// claimable again.
func TestSweepOrphans(t *testing.T) {
	dir := t.TempDir()
	ttl := 20 * time.Millisecond
	s := newStore(t, dir, "a", ttl)
	if err := s.Enqueue("j", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Acquire("j"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-mutation: rename the lease to a grab path and
	// abandon it.
	orphan := s.leasePath("j") + ".grab-dead-1"
	if err := os.Rename(s.leasePath("j"), orphan); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Second)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if s.Claimable("j") {
		t.Fatal("job claimable while its lease is orphaned (pre-sweep)")
	}
	if n := s.SweepOrphans(); n != 1 {
		t.Fatalf("SweepOrphans restored %d, want 1", n)
	}
	if _, err := os.Stat(s.leasePath("j")); err != nil {
		t.Fatalf("lease not restored: %v", err)
	}
	time.Sleep(ttl + 10*time.Millisecond)
	if _, tookOver, err := s.Acquire("j"); err != nil || !tookOver {
		t.Fatalf("takeover of restored lease failed: %v", err)
	}
}

// TestStateScanSkipsCorrupt: a torn state record doesn't poison States.
func TestStateScanSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, dir, "a", time.Second)
	if err := s.Enqueue("good", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state", "bad.json"), []byte(`{"job": "ba`), 0o644); err != nil {
		t.Fatal(err)
	}
	states, err := s.States()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Job != "good" {
		t.Fatalf("States() = %+v, want just the good record", states)
	}
	if err := s.Health(); err != nil {
		t.Fatalf("Health after scan: %v", err)
	}
}

// TestCancelMarker round-trips the cancellation marker.
func TestCancelMarker(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, dir, "a", time.Second)
	if s.Cancelled("j") {
		t.Fatal("cancelled before marker")
	}
	if err := s.Cancel("j"); err != nil {
		t.Fatal(err)
	}
	if !s.Cancelled("j") {
		t.Fatal("marker not observed")
	}
	s.ClearCancel("j")
	if s.Cancelled("j") {
		t.Fatal("marker survived ClearCancel")
	}
}

// TestJobIDValidation: traversal attempts are rejected before any path
// join.
func TestJobIDValidation(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, dir, "a", time.Second)
	for _, id := range []string{"", "../evil", "a/b", `a\b`, "..", "x/../y"} {
		if err := s.Enqueue(id, nil); err == nil {
			t.Errorf("Enqueue(%q) accepted", id)
		}
		if _, _, err := s.Acquire(id); err == nil {
			t.Errorf("Acquire(%q) accepted", id)
		}
	}
}
