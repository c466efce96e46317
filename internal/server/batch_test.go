package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// TestSampleJobBatchInferenceParity submits the same DL-proposal sample job
// twice as raw JSON, once with the retired "batch_inference" field and once
// without. The field is decoded and ignored — it only ever chose between
// two DL paths with identical bits — so the two stored DOS artifacts must
// be byte-identical, and neither job reports engine counters.
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

	run := func(name, extra string) Job {
		t.Helper()
		spec := `{"type":"sample","name":"` + name + `","model_artifact":"` + info.ID + `",` +
			`"system":{"cells":2,"seed":3,"latent":4,"hidden":24},` +
			`"dos":{"windows":2,"walkers":4,"bins":16,"lnf_final":1e-2,"dl_weight":0.3` + extra + `}}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			t.Fatalf("%s: submit status %d", name, resp.StatusCode)
		}
		var jb Job
		decodeJSON(t, resp, &jb)
		done := waitJob(t, ts.URL, jb.ID, 5*time.Minute)
		if done.State != JobDone {
			t.Fatalf("%s job %s: %s", name, done.State, done.Error)
		}
		for k := range done.Result {
			if strings.HasPrefix(k, "batch_") {
				t.Errorf("%s job reports %s", name, k)
			}
		}
		return done
	}
	plain := run("plain", "")
	flagged := run("flagged", `,"batch_inference":true`)

	plainDOS, err := srv.Registry().Data(plain.Result["dos_artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	flaggedDOS, err := srv.Registry().Data(flagged.Result["dos_artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainDOS, flaggedDOS) {
		t.Fatal("a spec with batch_inference produced a different DOS artifact than the same spec without it")
	}
}
