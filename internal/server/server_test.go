package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/dos"
	"deepthermo/internal/rng"
	"deepthermo/internal/thermo"
	"deepthermo/internal/vae"
)

// newTestServer wires a Server on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, v)
	return resp
}

// testDOS builds a deterministic synthetic density of states (a log-domain
// parabola, Gaussian-like g) whose canonical observables are easy to
// cross-check directly against thermo.Canonical.
func testDOS(t *testing.T) *dos.LogDOS {
	t.Helper()
	d, err := dos.New(-2, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.LogG {
		x := d.BinEnergy(i)
		d.LogG[i] = 30 - 8*x*x
	}
	return d
}

func uploadDOS(t *testing.T, baseURL string, d *dos.LogDOS) Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/artifacts?kind=dos&name=test-dos", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info Artifact
	decodeJSON(t, resp, &info)
	return info
}

// waitJob polls a job until it reaches a terminal state or the deadline.
func waitJob(t *testing.T, baseURL, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var job Job
		getJSON(t, baseURL+"/v1/jobs/"+id, &job)
		switch job.State {
		case JobDone, JobFailed, JobCancelled:
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, job.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func submitJob(t *testing.T, baseURL string, spec JobSpec) Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	var job Job
	decodeJSON(t, resp, &job)
	return job
}

// tinySampleSpec is a fast NoDL REWL job on the 16-site NbMoTaW system.
func tinySampleSpec() JobSpec {
	return JobSpec{
		Type:   JobSample,
		Name:   "tiny",
		System: SystemSpec{Cells: 2, Seed: 3},
		DOS:    DOSSpec{Windows: 2, Bins: 16, LnFFinal: 1e-2, NoDL: true},
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, out)
	}
}

func TestJobLifecycleSampleToQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	job := submitJob(t, ts.URL, tinySampleSpec())
	if job.State != JobPending && job.State != JobRunning {
		t.Fatalf("fresh job state %s", job.State)
	}
	done := waitJob(t, ts.URL, job.ID, 2*time.Minute)
	if done.State != JobDone {
		t.Fatalf("job finished %s: %s", done.State, done.Error)
	}
	if len(done.Artifacts) != 1 || !strings.HasPrefix(done.Artifacts[0], "dos-") {
		t.Fatalf("artifacts %v", done.Artifacts)
	}
	if done.Result["converged"] != true {
		t.Fatalf("result %v", done.Result)
	}
	if done.Started == nil || done.Finished == nil {
		t.Fatal("missing timestamps")
	}

	// The produced artifact answers thermodynamics queries.
	artID := done.Artifacts[0]
	var out struct {
		Cached bool           `json:"cached"`
		Points []thermo.Point `json:"points"`
	}
	resp := getJSON(t, ts.URL+"/v1/thermo?artifact="+artID+"&sweep=100:3500:50", &out)
	if resp.StatusCode != http.StatusOK || len(out.Points) != 50 {
		t.Fatalf("thermo query: %d, %d points", resp.StatusCode, len(out.Points))
	}
	for _, p := range out.Points {
		if p.Cv < 0 || math.IsNaN(p.U) {
			t.Fatalf("bad point %+v", p)
		}
	}
}

func TestJobCancelStopsSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	spec := tinySampleSpec()
	spec.DOS.LnFFinal = 1e-12 // far beyond what finishes quickly
	job := submitJob(t, ts.URL, spec)

	// Wait for it to start running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j Job
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &j)
		if j.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	cancelled := waitJob(t, ts.URL, job.ID, 30*time.Second)
	if cancelled.State != JobCancelled {
		t.Fatalf("state %s after cancel (err %q)", cancelled.State, cancelled.Error)
	}
	// Partial progress is preserved as a partial DOS artifact.
	if len(cancelled.Artifacts) == 1 {
		var info Artifact
		getJSON(t, ts.URL+"/v1/artifacts/"+cancelled.Artifacts[0], &info)
		if info.Meta["partial"] != "true" {
			t.Errorf("partial artifact not marked: %v", info.Meta)
		}
	}
}

func TestCancelPendingJob(t *testing.T) {
	// One worker occupied by a long job forces the second job to queue.
	_, ts := newTestServer(t, Config{Workers: 1})
	long := tinySampleSpec()
	long.DOS.LnFFinal = 1e-12
	running := submitJob(t, ts.URL, long)
	queued := submitJob(t, ts.URL, tinySampleSpec())

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	decodeJSON(t, resp, &j)
	if j.State != JobCancelled {
		t.Fatalf("pending job state %s after cancel", j.State)
	}
	// Clean up the long job so server Close is fast.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"type":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus job type accepted: %d", resp.StatusCode)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Model artifact through the vae serializer.
	model, err := vae.New(vae.Config{Sites: 16, Species: 4, Latent: 2, Hidden: 8, BetaKL: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := model.Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), mbuf.Bytes()...)
	resp, err := http.Post(ts.URL+"/v1/artifacts?kind=model&name=m0", "application/octet-stream", &mbuf)
	if err != nil {
		t.Fatal(err)
	}
	var info Artifact
	decodeJSON(t, resp, &info)
	if resp.StatusCode != http.StatusCreated || info.Kind != KindModel {
		t.Fatalf("upload: %d %+v", resp.StatusCode, info)
	}

	got, err := http.Get(ts.URL + "/v1/artifacts/" + info.ID + "/data")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if !bytes.Equal(data, orig) {
		t.Fatalf("model bytes changed through registry: %d vs %d bytes", len(data), len(orig))
	}
	if _, err := vae.Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("downloaded model does not load: %v", err)
	}

	// DOS artifact round-trip.
	d := testDOS(t)
	dinfo := uploadDOS(t, ts.URL, d)
	got, err = http.Get(ts.URL + "/v1/artifacts/" + dinfo.ID + "/data")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dos.Load(got.Body)
	got.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.LogG {
		if d.LogG[i] != d2.LogG[i] {
			t.Fatalf("bin %d: %g vs %g", i, d.LogG[i], d2.LogG[i])
		}
	}

	// Corrupt uploads are rejected by the serializer validation.
	resp, err = http.Post(ts.URL+"/v1/artifacts?kind=dos", "application/octet-stream", strings.NewReader("not a dos"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt artifact accepted: %d", resp.StatusCode)
	}
}

// TestUploadRejectsNonFiniteDOS: a DOS whose grid or visited ln g is not
// finite is refused at upload, before a thermo query could fail on it.
func TestUploadRejectsNonFiniteDOS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, spoil := range map[string]func(d *dos.LogDOS){
		"nan ln g":   func(d *dos.LogDOS) { d.LogG[3] = math.NaN() },
		"+inf ln g":  func(d *dos.LogDOS) { d.LogG[3] = math.Inf(1) },
		"+inf width": func(d *dos.LogDOS) { d.BinWidth = math.Inf(1) },
	} {
		d := testDOS(t)
		spoil(d)
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/artifacts?kind=dos", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: upload answered %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestUploadRejectsNonFiniteModel: a model whose weights are not all
// finite is refused at upload, as a non-finite DOS is.
func TestUploadRejectsNonFiniteModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, v := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		m, err := vae.New(vae.Config{Sites: 16, Species: 4, Latent: 2, Hidden: 8, BetaKL: 1}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		m.Params()[0].Value[5] = v
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/artifacts?kind=model", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s weight: upload answered %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestThermoMatchesCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := testDOS(t)
	info := uploadDOS(t, ts.URL, d)

	temps := thermo.TempRange(100, 3500, 50)
	want, err := thermo.Curve(d, temps)
	if err != nil {
		t.Fatal(err)
	}

	var out struct {
		Cached bool           `json:"cached"`
		Points []thermo.Point `json:"points"`
	}
	getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&sweep=100:3500:50", &out)
	if len(out.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(out.Points), len(want))
	}
	for i, p := range out.Points {
		w := want[i]
		for name, pair := range map[string][2]float64{
			"T": {p.T, w.T}, "U": {p.U, w.U}, "Cv": {p.Cv, w.Cv}, "F": {p.F, w.F}, "S": {p.S, w.S},
		} {
			diff := math.Abs(pair[0] - pair[1])
			scale := math.Max(1, math.Abs(pair[1]))
			if diff/scale > 1e-12 {
				t.Fatalf("point %d field %s: served %.17g, direct %.17g", i, name, pair[0], pair[1])
			}
		}
	}

	// Single-temperature form matches Canonical too.
	var single struct {
		Points []thermo.Point `json:"points"`
	}
	getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=300", &single)
	direct, err := thermo.Canonical(d, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Points) != 1 || math.Abs(single.Points[0].U-direct.U) > 1e-12*math.Max(1, math.Abs(direct.U)) {
		t.Fatalf("single query %+v vs %+v", single.Points, direct)
	}
}

func TestThermoValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := uploadDOS(t, ts.URL, testDOS(t))
	for url, wantCode := range map[string]int{
		"/v1/thermo":                                      http.StatusBadRequest, // no artifact
		"/v1/thermo?artifact=" + info.ID:                  http.StatusBadRequest, // no temps
		"/v1/thermo?artifact=" + info.ID + "&T=-5":        http.StatusBadRequest, // negative T
		"/v1/thermo?artifact=" + info.ID + "&sweep=1:2":   http.StatusBadRequest, // malformed sweep
		"/v1/thermo?artifact=nope&T=300":                  http.StatusNotFound,   // unknown artifact
		"/v1/thermo?artifact=" + info.ID + "&sweep=1:2:0": http.StatusBadRequest, // zero points
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %d, want %d", url, resp.StatusCode, wantCode)
		}
	}
}

func TestThermoCacheConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 8})
	info := uploadDOS(t, ts.URL, testDOS(t))
	url := ts.URL + "/v1/thermo?artifact=" + info.ID + "&sweep=200:3000:25"

	// Prime the cache, then hammer the same grid concurrently.
	var first struct {
		Cached bool           `json:"cached"`
		Points []thermo.Point `json:"points"`
	}
	getJSON(t, url, &first)
	if first.Cached {
		t.Fatal("first query claims cached")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				var out struct {
					Points []thermo.Point `json:"points"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
				if len(out.Points) != len(first.Points) || out.Points[0] != first.Points[0] {
					errs <- fmt.Errorf("inconsistent cached response")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	hits, misses := srv.cache.Stats()
	if hits < goroutines*10 {
		t.Errorf("cache hits %d, want ≥ %d", hits, goroutines*10)
	}
	if misses < 1 {
		t.Errorf("cache misses %d", misses)
	}

	// Distinct grids occupy distinct entries and evict LRU at capacity.
	for i := 0; i < 12; i++ {
		var out map[string]any
		getJSON(t, fmt.Sprintf("%s/v1/thermo?artifact=%s&T=%d", ts.URL, info.ID, 300+i), &out)
	}
	if srv.cache.Len() > 8 {
		t.Errorf("cache grew past capacity: %d", srv.cache.Len())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := uploadDOS(t, ts.URL, testDOS(t))
	var out map[string]any
	getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=500", &out)
	getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=500", &out) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`dtserve_http_requests_total{route="/v1/thermo",code="200"} 2`,
		`dtserve_http_requests_total{route="/v1/artifacts",code="201"} 1`,
		`dtserve_curve_cache_hits_total 1`,
		`dtserve_curve_cache_misses_total 1`,
		`dtserve_workers 2`,
		`dtserve_job_queue_depth 0`,
		`dtserve_jobs{state="pending"} 0`,
		`dtserve_http_request_duration_seconds_bucket{le="+Inf"}`,
		`dtserve_artifacts 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestRegistryPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d := testDOS(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := srv1.Registry().Put(KindDOS, "persisted", buf.Bytes(), map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, ok := srv2.Registry().Get(info.ID)
	if !ok {
		t.Fatalf("artifact %s lost across restart", info.ID)
	}
	if got.Name != "persisted" || got.Meta["k"] != "v" || got.Kind != KindDOS {
		t.Fatalf("restored metadata %+v", got)
	}
	d2, err := srv2.Registry().DOS(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d2.LogG[5] != d.LogG[5] {
		t.Fatal("restored DOS differs")
	}
	// New IDs continue past restored ones instead of colliding.
	info2, err := srv2.Registry().Put(KindDOS, "second", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info2.ID == info.ID {
		t.Fatalf("ID collision after restart: %s", info2.ID)
	}
}

func TestTrainJobProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training job in -short mode")
	}
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{
		Type:   JobTrain,
		Name:   "trainer",
		System: SystemSpec{Cells: 2, Seed: 5, Latent: 2, Hidden: 16},
		Data:   &DataSpec{LadderLen: 2, SamplesPerTemp: 20},
		Train:  &TrainSpec{Epochs: 2, BatchSize: 16, LR: 1e-3, Seed: 6},
	}
	job := submitJob(t, ts.URL, spec)
	done := waitJob(t, ts.URL, job.ID, 2*time.Minute)
	if done.State != JobDone {
		t.Fatalf("train job %s: %s", done.State, done.Error)
	}
	if len(done.Artifacts) != 1 || !strings.HasPrefix(done.Artifacts[0], "model-") {
		t.Fatalf("artifacts %v", done.Artifacts)
	}
	// The stored model loads through the vae serializer.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + done.Artifacts[0] + "/data")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := vae.Load(resp.Body); err != nil {
		t.Fatalf("trained model artifact unusable: %v", err)
	}
}
