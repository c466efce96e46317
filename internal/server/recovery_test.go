package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepthermo/internal/rewl"
)

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", timeout, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryResumesJob is the PR's kill -9 acceptance test: a server
// with a DataDir is killed mid-sampling (no graceful shutdown, journal left
// saying `running`), and a fresh server on the same DataDir restores the
// job as interrupted, resumes it from its last REWL checkpoint, and
// converges.
func TestCrashRecoveryResumesJob(t *testing.T) {
	dataDir := t.TempDir()

	srv1, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySampleSpec()
	spec.DOS.LnFFinal = 1e-6 // long enough to catch mid-run
	spec.DOS.CheckpointEvery = 1
	job, err := srv1.jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the run to commit at least one checkpoint, then "kill -9".
	ckpt := filepath.Join(dataDir, "checkpoints", job.ID)
	waitFor(t, time.Minute, "first checkpoint", func() bool {
		return rewl.HasCheckpoint(ckpt)
	})
	srv1.jobs.Crash()

	// A new server on the same DataDir must restore the job from the
	// journal as interrupted and requeue it with Resume set.
	srv2, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restored, ok := srv2.jobs.Get(job.ID)
	if !ok {
		t.Fatalf("job %s not restored from journal", job.ID)
	}
	if restored.State != JobInterrupted && restored.State != JobRunning && restored.State != JobDone {
		t.Fatalf("restored state %s, want interrupted/running/done", restored.State)
	}
	if !restored.Resume {
		t.Fatal("restored job does not carry Resume")
	}

	waitFor(t, 2*time.Minute, "resumed job to finish", func() bool {
		jb, _ := srv2.jobs.Get(job.ID)
		return jb.State == JobDone || jb.State == JobFailed || jb.State == JobCancelled
	})
	final, _ := srv2.jobs.Get(job.ID)
	if final.State != JobDone {
		t.Fatalf("resumed job finished %s: %s", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one per process)", final.Attempts)
	}
	if final.Result["resumed"] != true {
		t.Errorf("result lacks resumed=true: %v", final.Result)
	}
	if final.Result["converged"] != true {
		t.Errorf("resumed run did not converge: %v", final.Result)
	}
	// The finished run cleans up its checkpoint directory.
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not cleaned up after success: %v", err)
	}
}

// TestPanicRecoveryFailsJob: a panicking Runner fails its own job with the
// panic message instead of killing the worker pool.
func TestPanicRecoveryFailsJob(t *testing.T) {
	jm := NewJobManager(1, 4, func(ctx context.Context, jb Job) (map[string]any, []string, error) {
		if jb.Spec.Name == "boom" {
			panic("walker exploded")
		}
		return map[string]any{"ok": true}, nil, nil
	})
	defer jm.Close()

	bad, err := jm.Submit(JobSpec{Type: JobSample, Name: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "panicking job to fail", func() bool {
		jb, _ := jm.Get(bad.ID)
		return jb.State == JobFailed
	})
	jb, _ := jm.Get(bad.ID)
	if !strings.Contains(jb.Error, "panicked") || !strings.Contains(jb.Error, "walker exploded") {
		t.Fatalf("panic not captured in error: %q", jb.Error)
	}

	// The pool survived: the next job still runs.
	good, err := jm.Submit(JobSpec{Type: JobSample, Name: "fine"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follow-up job to finish", func() bool {
		jb, _ := jm.Get(good.ID)
		return jb.State == JobDone
	})
}

// TestRetryBackoffRecovers: a transiently failing job is parked as
// interrupted and retried with Resume set until it succeeds or exhausts
// the retry budget.
func TestRetryBackoffRecovers(t *testing.T) {
	jm := NewJobManager(1, 4, func(ctx context.Context, jb Job) (map[string]any, []string, error) {
		if jb.Spec.Name == "always-fails" || jb.Attempts < 2 {
			return nil, nil, fmt.Errorf("transient fault on attempt %d", jb.Attempts)
		}
		if !jb.Resume {
			return nil, nil, fmt.Errorf("retry did not request resume")
		}
		return map[string]any{"ok": true}, nil, nil
	})
	defer jm.Close()
	jm.SetRetryPolicy(3, time.Millisecond)

	job, err := jm.Submit(JobSpec{Type: JobSample, Name: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "flaky job to recover", func() bool {
		jb, _ := jm.Get(job.ID)
		return jb.State == JobDone || jb.State == JobFailed
	})
	jb, _ := jm.Get(job.ID)
	if jb.State != JobDone {
		t.Fatalf("flaky job finished %s: %s", jb.State, jb.Error)
	}
	if jb.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", jb.Attempts)
	}

	hopeless, err := jm.Submit(JobSpec{Type: JobSample, Name: "always-fails"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "hopeless job to exhaust retries", func() bool {
		jb, _ := jm.Get(hopeless.ID)
		return jb.State == JobFailed
	})
	jb, _ = jm.Get(hopeless.ID)
	if jb.Attempts != 3 {
		t.Errorf("hopeless Attempts = %d, want retryMax=3", jb.Attempts)
	}
}

// TestJournalReplayTolerance: replay applies last-record-per-job-wins and
// skips a torn trailing line (a crash mid-append), and openJournal compacts
// the file to one record per job.
func TestJournalReplayTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	raw := strings.Join([]string{
		`{"id":"job-1","state":"pending","spec":{"type":"sample"},"submitted":"2026-08-06T00:00:00Z"}`,
		`{"id":"job-2","state":"pending","spec":{"type":"sample"},"submitted":"2026-08-06T00:00:01Z"}`,
		`{"id":"job-1","state":"done","spec":{"type":"sample"},"submitted":"2026-08-06T00:00:00Z"}`,
		`{"id":"job-2","state":"runni`, // torn mid-append by the crash
	}, "\n")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, jr, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.close()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "job-1" || jobs[0].State != JobDone {
		t.Errorf("job-1 replayed as %s %s, want done (last record wins)", jobs[0].ID, jobs[0].State)
	}
	if jobs[1].ID != "job-2" || jobs[1].State != JobPending {
		t.Errorf("job-2 replayed as %s %s, want pending (torn record skipped)", jobs[1].ID, jobs[1].State)
	}

	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(compacted), "\n"); n != 2 {
		t.Errorf("compacted journal has %d lines, want 2", n)
	}
}

// TestDrainKilledMidWriteCompactsJournal: a draining server killed -9
// mid-append (torn trailing record) leaves a transition-per-line journal;
// the next open must tolerate the torn line, compact to one record per
// job, and recover the in-flight job as interrupted with Resume.
func TestDrainKilledMidWriteCompactsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")

	block := make(chan struct{})
	jm1 := NewJobManager(1, 8, func(ctx context.Context, jb Job) (map[string]any, []string, error) {
		if jb.Spec.Name == "slow" {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		return map[string]any{"ok": true}, nil, nil
	})
	if _, err := jm1.EnableJournal(path); err != nil {
		t.Fatal(err)
	}

	// Three quick jobs finish (3 journal lines each: pending, running,
	// done), then a slow one occupies the worker (2 lines).
	var quick []string
	for i := 0; i < 3; i++ {
		jb, err := jm1.Submit(JobSpec{Type: JobSample, Name: fmt.Sprintf("quick-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		quick = append(quick, jb.ID)
	}
	for _, id := range quick {
		waitFor(t, 10*time.Second, "quick job "+id, func() bool {
			jb, _ := jm1.Get(id)
			return jb.State == JobDone
		})
	}
	slow, err := jm1.Submit(JobSpec{Type: JobSample, Name: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "slow job to start", func() bool {
		jb, _ := jm1.Get(slow.ID)
		return jb.State == JobRunning
	})

	// The server starts draining, then dies mid-append: kill -9 while a
	// journal write was in flight leaves a torn trailing record.
	jm1.StopAdmitting()
	jm1.Crash()
	close(block)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"` + slow.ID + `","state":"runni`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: torn line skipped, journal compacted, slow job recovered.
	jm2 := NewJobManager(1, 8, func(ctx context.Context, jb Job) (map[string]any, []string, error) {
		return map[string]any{"ok": true}, nil, nil
	})
	recovered, err := jm2.EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jm2.Close()
	if len(recovered) != 1 || recovered[0].ID != slow.ID {
		t.Fatalf("recovered %v, want just %s", recovered, slow.ID)
	}
	if recovered[0].State != JobInterrupted || !recovered[0].Resume {
		t.Fatalf("slow job recovered as %s resume=%v, want interrupted+resume", recovered[0].State, recovered[0].Resume)
	}
	for _, id := range quick {
		jb, ok := jm2.Get(id)
		if !ok || jb.State != JobDone {
			t.Errorf("quick job %s lost or not done after recovery", id)
		}
	}

	// Compaction: openJournal rewrote the transition log to one record
	// per job, plus the single interrupted re-append for the slow job.
	// jm2's worker may already be rerunning that job; its records carry
	// attempt 2 and are not part of the compaction.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var jb Job
		if err := json.Unmarshal([]byte(ln), &jb); err != nil {
			t.Fatalf("journal line %q: %v", ln, err)
		}
		if jb.ID != slow.ID || jb.Attempts != 2 {
			lines++
		}
	}
	if want := 5; lines != want { // 4 jobs compacted + 1 interrupted append
		t.Errorf("journal has %d lines after compaction, want %d:\n%s", lines, want, raw)
	}
}

// TestRestartAssignsFreshIDs: after recovery, new submissions must not
// collide with journaled job IDs.
func TestRestartAssignsFreshIDs(t *testing.T) {
	dataDir := t.TempDir()
	srv1, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	jb1, err := srv1.jobs.Submit(JobSpec{Type: JobSample, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	srv1.jobs.Crash()

	srv2, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	jb2, err := srv2.jobs.Submit(JobSpec{Type: JobSample, Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if jb2.ID == jb1.ID {
		t.Fatalf("recovered server reused job ID %s", jb1.ID)
	}
}
