package server

import (
	"bytes"
	"testing"
	"time"

	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// TestSampleJobBatchInferenceParity runs the same DL-proposal sample job
// twice through the HTTP API — once on the sequential per-walker path, once
// with batch_inference — and requires the stored DOS artifacts to be
// byte-identical. It also checks the batched job surfaces the engine's
// stats in its result — every forward a batch of one — and the sequential
// job does not.
func TestSampleJobBatchInferenceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full REWL runs in -short mode")
	}
	srv, ts := newTestServer(t, Config{})

	// A fixed-seed untrained model is enough to drive the DL mixture.
	model, err := vae.New(vae.Config{Sites: 16, Species: 4, Latent: 4, Hidden: 24, BetaKL: 1}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := srv.Registry().Put(KindModel, "parity-model", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{
		Type:          JobSample,
		Name:          "seq",
		System:        SystemSpec{Cells: 2, Seed: 3, Latent: 4, Hidden: 24},
		DOS:           DOSSpec{Windows: 2, Walkers: 4, Bins: 16, LnFFinal: 1e-2, DLWeight: 0.3},
		ModelArtifact: info.ID,
	}
	seq := waitJob(t, ts.URL, submitJob(t, ts.URL, spec).ID, 5*time.Minute)
	if seq.State != JobDone {
		t.Fatalf("sequential job %s: %s", seq.State, seq.Error)
	}

	spec.Name = "bat"
	spec.DOS.BatchInference = true
	bat := waitJob(t, ts.URL, submitJob(t, ts.URL, spec).ID, 5*time.Minute)
	if bat.State != JobDone {
		t.Fatalf("batched job %s: %s", bat.State, bat.Error)
	}

	seqDOS, err := srv.Registry().Data(seq.Result["dos_artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	batDOS, err := srv.Registry().Data(bat.Result["dos_artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqDOS, batDOS) {
		t.Fatal("batched job produced a different DOS artifact than the sequential job")
	}

	if _, ok := seq.Result["batch_requests"]; ok {
		t.Fatal("sequential job unexpectedly reported engine stats")
	}
	reqs, ok := bat.Result["batch_requests"].(float64)
	if !ok || reqs <= 0 {
		t.Fatalf("batched job reported no engine requests: %v", bat.Result)
	}
	if flushes, ok := bat.Result["batch_flushes"].(float64); !ok || flushes != reqs {
		t.Fatalf("engine forwards %v, want one per request (%v)", bat.Result["batch_flushes"], reqs)
	}
	if maxb, ok := bat.Result["batch_max"].(float64); !ok || maxb != 1 {
		t.Fatalf("engine max batch %v, want 1", bat.Result["batch_max"])
	}
}
