package server

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"deepthermo/internal/rewl"
)

// TestFleetFailoverResumesJob is the fleet-mode kill -9 acceptance test:
// two replicas share one fleet directory, the replica running a sampling
// job dies without any shutdown path (Crash: heartbeats stop, nothing is
// written), and once the lease expires the survivor takes the job over,
// resumes it from the dead owner's last shared REWL checkpoint, and
// produces the same DOS — byte-identical to an uninterrupted
// single-server run of the identical spec.
func TestFleetFailoverResumesJob(t *testing.T) {
	spec := tinySampleSpec()
	spec.DOS.LnFFinal = 1e-6 // long enough to die mid-run
	spec.DOS.CheckpointEvery = 1

	// Reference: the same spec run to completion on a plain server.
	ref, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refJob, err := ref.jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Minute, "reference run", func() bool {
		jb, _ := ref.jobs.Get(refJob.ID)
		return jb.State == JobDone
	})
	refFinal, _ := ref.jobs.Get(refJob.ID)
	refBytes, err := ref.reg.Data(refFinal.Result["dos_artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}

	fleetDir := t.TempDir()
	cfgFor := func(replica string) Config {
		return Config{
			Workers:        1,
			FleetDir:       fleetDir,
			ReplicaID:      replica,
			LeaseTTL:       500 * time.Millisecond,
			LeaseHeartbeat: 100 * time.Millisecond,
		}
	}
	srvA, err := New(cfgFor("ra"))
	if err != nil {
		t.Fatal(err)
	}
	job, err := srvA.jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "replica A to claim and start the job", func() bool {
		jb, ok := srvA.jobs.Get(job.ID)
		return ok && jb.State == JobRunning
	})
	// At least one checkpoint must land in the SHARED directory before the
	// crash, or there is nothing for the survivor to resume from.
	ckpt := filepath.Join(fleetDir, "checkpoints", job.ID)
	waitFor(t, time.Minute, "first shared checkpoint", func() bool {
		return rewl.HasCheckpoint(ckpt)
	})

	srvB, err := New(cfgFor("rb"))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	// While A's lease is live, B must see the job through the shared store
	// but must not claim it.
	if _, ok := srvB.jobs.Get(job.ID); !ok {
		t.Fatalf("replica B cannot see job %s through the shared store", job.ID)
	}
	if held := srvB.Fleet().Held(); held != 0 {
		t.Fatalf("replica B holds %d leases while A's lease is live", held)
	}

	// kill -9: no release, no journal write, heartbeats just stop.
	srvA.jobs.Crash()

	waitFor(t, 2*time.Minute, "survivor to take over and finish the job", func() bool {
		jb, _ := srvB.jobs.Get(job.ID)
		return jb.State == JobDone || jb.State == JobFailed || jb.State == JobCancelled
	})
	final, _ := srvB.jobs.Get(job.ID)
	if final.State != JobDone {
		t.Fatalf("taken-over job finished %s: %s", final.State, final.Error)
	}
	if srvB.Fleet().Takeovers() < 1 {
		t.Error("survivor finished the job without recording a takeover")
	}
	if final.Result["resumed"] != true {
		t.Errorf("taken-over run did not resume from the checkpoint: %v", final.Result)
	}

	// The artifact B produced lives in the shared store, carries fencing
	// provenance, and matches the uninterrupted reference bit for bit.
	dosID, _ := final.Result["dos_artifact"].(string)
	if dosID == "" {
		t.Fatalf("no dos artifact in result: %v", final.Result)
	}
	info, ok := srvB.reg.Get(dosID)
	if !ok {
		t.Fatalf("artifact %s missing from registry", dosID)
	}
	if info.Meta["replica"] != "rb" || info.Meta["fence"] == "" {
		t.Errorf("artifact lacks fencing provenance: %v", info.Meta)
	}
	got, err := srvB.reg.Data(dosID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Errorf("taken-over DOS differs from uninterrupted reference (%d vs %d bytes)", len(got), len(refBytes))
	}

	// Cross-replica read: a fresh replica on the same fleet dir serves the
	// artifact B committed, via the lazy shared-store lookup.
	srvC, err := New(cfgFor("rc"))
	if err != nil {
		t.Fatal(err)
	}
	defer srvC.Close()
	if _, err := srvC.reg.Data(dosID); err != nil {
		t.Errorf("replica C cannot read %s from the shared store: %v", dosID, err)
	}
}

// TestFleetSubmitVisibleEverywhere: a job submitted on one replica is
// listed and queryable on another before and after completion.
func TestFleetSubmitVisibleEverywhere(t *testing.T) {
	fleetDir := t.TempDir()
	mk := func(replica string) *Server {
		srv, err := New(Config{
			Workers:        1,
			FleetDir:       fleetDir,
			ReplicaID:      replica,
			LeaseTTL:       time.Second,
			LeaseHeartbeat: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	srvA, srvB := mk("ra"), mk("rb")

	job, err := srvA.jobs.Submit(tinySampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job visible on replica B", func() bool {
		_, ok := srvB.jobs.Get(job.ID)
		return ok
	})
	waitFor(t, 2*time.Minute, "job to finish somewhere", func() bool {
		jb, ok := srvB.jobs.Get(job.ID)
		return ok && jb.State == JobDone
	})
	// Both replicas list it.
	for name, srv := range map[string]*Server{"A": srvA, "B": srvB} {
		found := false
		for _, jb := range srv.jobs.List() {
			if jb.ID == job.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("replica %s does not list job %s", name, job.ID)
		}
	}
}
