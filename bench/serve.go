package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deepthermo/internal/dos"
	"deepthermo/internal/rng"
	"deepthermo/internal/server"
	"deepthermo/internal/thermo"
)

// loopback is a real dtserve (server.New(...).Handler()) behind a TCP
// listener on 127.0.0.1, plus the one keep-alive client the benchmark
// talks to it through.
type loopback struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan struct{}

	tr *tracer // set by the traced pass: one span per request

	mu       sync.Mutex
	requests int // every HTTP request sent
	failed   int // transport errors and unexpected statuses
	shed     int // 429 and 503
}

func startLoopback(dataDir string) (*loopback, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	lb := &loopback{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
			Timeout:   60 * time.Second,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		lb.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return lb, nil
}

// stop shuts the listener down, waits for the serve goroutine and stops
// the job workers.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.http.Shutdown(ctx)
	<-lb.done
	lb.client.CloseIdleConnections()
	lb.srv.Close()
}

// do sends one request and returns status and body. Every request counts
// as attempted; anything but wantStatus counts as failed.
func (lb *loopback) do(method, path string, body []byte, wantStatus int, spanName, run string) (int, []byte, error) {
	id := lb.tr.begin(spanName, run, 0)
	defer lb.tr.end(id)
	req, err := http.NewRequest(method, lb.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := lb.client.Do(req)
	var data []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lb.mu.Lock()
	lb.requests++
	if err != nil || status != wantStatus {
		lb.failed++
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		lb.shed++
	}
	lb.mu.Unlock()
	if err != nil {
		return status, data, err
	}
	if status != wantStatus {
		return status, data, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, wantStatus, data)
	}
	return status, data, nil
}

// upload registers DOS bytes and returns the artifact id.
func (lb *loopback) upload(data []byte) (string, float64, error) {
	start := time.Now()
	_, body, err := lb.do("POST", "/v1/artifacts?kind=dos&name=bench", data, http.StatusCreated, "http.upload", "upload")
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return "", ms, err
	}
	var art struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &art); err != nil || art.ID == "" {
		return "", ms, fmt.Errorf("upload response %.200s: %v", body, err)
	}
	return art.ID, ms, nil
}

// jobOutcome is one POST /v1/jobs → poll → done → GET /v1/thermo pass.
type jobOutcome struct {
	TurnaroundS    float64 // POST → state done
	ToCurveS       float64 // POST → curve received
	QueueToStartMs float64
	Polls          int
	DOSArtifact    string
	Points         []thermo.Point
}

func sweepParam(lo float64) string {
	return "sweep=" + strconv.FormatFloat(lo, 'g', -1, 64) + ":" + strconv.FormatFloat(curveTHi, 'g', -1, 64) + ":" + strconv.Itoa(curvePoints)
}

// runJob submits a sample job and follows it to its curve. poll is the
// status polling period.
func (lb *loopback) runJob(spec map[string]any, poll time.Duration, run string) (*jobOutcome, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, resp, err := lb.do("POST", "/v1/jobs", body, http.StatusAccepted, "http.submit", run)
	if err != nil {
		return nil, err
	}
	var job struct {
		ID        string         `json:"id"`
		State     string         `json:"state"`
		Error     string         `json:"error"`
		Submitted time.Time      `json:"submitted"`
		Started   *time.Time     `json:"started"`
		Result    map[string]any `json:"result"`
	}
	if err := json.Unmarshal(resp, &job); err != nil {
		return nil, err
	}
	out := &jobOutcome{}
	deadline := start.Add(60 * time.Second)
	for job.State != "done" {
		if job.State == "failed" || job.State == "cancelled" {
			return nil, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 60 s", job.ID, job.State)
		}
		time.Sleep(poll)
		_, resp, err = lb.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, "http.poll", run)
		if err != nil {
			return nil, err
		}
		out.Polls++
		if err := json.Unmarshal(resp, &job); err != nil {
			return nil, err
		}
	}
	out.TurnaroundS = time.Since(start).Seconds()
	if job.Started != nil {
		out.QueueToStartMs = float64(job.Started.Sub(job.Submitted).Nanoseconds()) / 1e6
	}
	if ok, _ := job.Result["converged"].(bool); !ok {
		return nil, fmt.Errorf("job %s did not converge: %v", job.ID, job.Result)
	}
	if fw, _ := job.Result["failed_walkers"].(float64); fw > 0 {
		return nil, fmt.Errorf("job %s lost %v walkers", job.ID, fw)
	}
	out.DOSArtifact, _ = job.Result["dos_artifact"].(string)
	_, raw, err := lb.do("GET", "/v1/thermo?artifact="+out.DOSArtifact+"&"+sweepParam(curveTLo), nil, http.StatusOK, "http.thermo", run)
	if err != nil {
		return nil, err
	}
	var curve thermoBody
	if err := json.Unmarshal(raw, &curve); err != nil {
		return nil, err
	}
	out.ToCurveS = time.Since(start).Seconds()
	out.Points = curve.Points
	return out, nil
}

// thermoBody is the part of a /v1/thermo response the benchmark reads.
type thermoBody struct {
	Cached bool           `json:"cached"`
	Points []thermo.Point `json:"points"`
}

// sameCurve checks a served curve against thermo.Curve on the same DOS.
func sameCurve(got, want []thermo.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d points, want %d", len(got), len(want))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
	for i := range got {
		g, w := got[i], want[i]
		if !close(g.T, w.T) || !close(g.U, w.U) || !close(g.Cv, w.Cv) || !close(g.F, w.F) || !close(g.S, w.S) {
			return fmt.Errorf("served point %d = %+v, thermo.Curve gives %+v", i, g, w)
		}
	}
	return nil
}

// thermoPhases is what the query phases measured.
type thermoPhases struct {
	UploadMs  float64
	Cold, Hot []float64 // per-request latency, ms
	HotWallS  float64
	RespBytes int
	HotCached int // hot responses that said "cached": true
	Mismatch  error
}

// serveSizes are the request counts of the query phases.
type serveSizes struct {
	Cold    int // distinct-grid GETs, one client
	Grids   int // hot working set (half the 128-curve LRU at full scale)
	HotEach int // GETs per hot client
	Clients int // closed-loop hot clients (≤ nproc)
}

// queryPhases uploads a DOS and measures /v1/thermo on it: cold — every
// GET a grid the server has not seen, so each one loads the DOS and
// reweights 257 temperatures; hot — closed-loop clients cycling through a
// working set that fits the curve cache. Every cold response is compared
// with thermo.Curve on the same DOS after the clock stops; every hot
// response must equal the cold response of its grid byte for byte apart
// from the "cached" flag.
func (lb *loopback) queryPhases(dosBytes []byte, sz serveSizes) (*thermoPhases, error) {
	d, err := dos.Load(bytes.NewReader(dosBytes))
	if err != nil {
		return nil, err
	}
	ph := &thermoPhases{}
	art, ms, err := lb.upload(dosBytes)
	if err != nil {
		return nil, err
	}
	ph.UploadMs = ms

	// Grids differ in their lowest temperature; steps of 1/8 K are exact
	// in binary, so client and server build bit-identical grids.
	coldLo := func(i int) float64 { return curveTLo + float64(i+1)*0.125 }
	bodies := make([][]byte, sz.Cold)
	for i := 0; i < sz.Cold; i++ {
		start := time.Now()
		_, raw, err := lb.do("GET", "/v1/thermo?artifact="+art+"&"+sweepParam(coldLo(i)), nil, http.StatusOK, "http.thermo_cold", "cold")
		ph.Cold = append(ph.Cold, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			return ph, err
		}
		bodies[i] = raw
	}
	for i, raw := range bodies {
		var r thermoBody
		if err := json.Unmarshal(raw, &r); err != nil {
			return ph, err
		}
		want, err := thermo.Curve(d, thermo.TempRange(coldLo(i), curveTHi, curvePoints))
		if err != nil {
			return ph, err
		}
		if err := sameCurve(r.Points, want); err != nil && ph.Mismatch == nil {
			ph.Mismatch = fmt.Errorf("cold grid %d: %w", i, err)
		}
		if r.Cached && ph.Mismatch == nil {
			ph.Mismatch = fmt.Errorf("cold grid %d was served from the cache", i)
		}
	}
	ph.RespBytes = len(bodies[0])

	// Hot working set: the last sz.Grids cold grids, the ones the LRU still
	// holds. The expected hot body is the cold body with the flag flipped.
	first := sz.Cold - sz.Grids
	want := make([][]byte, sz.Grids)
	for i := range want {
		want[i] = bytes.Replace(bodies[first+i], []byte(`"cached": false`), []byte(`"cached": true`), 1)
	}
	lat := make([][]float64, sz.Clients)
	cached := make([]int, sz.Clients)
	errs := make([]error, sz.Clients)
	var wg sync.WaitGroup
	hotStart := time.Now()
	for c := 0; c < sz.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]float64, 0, sz.HotEach)
			run := "hot" + strconv.Itoa(c)
			for i := 0; i < sz.HotEach; i++ {
				g := (i*sz.Clients + c) % sz.Grids
				start := time.Now()
				_, raw, err := lb.do("GET", "/v1/thermo?artifact="+art+"&"+sweepParam(coldLo(first+g)), nil, http.StatusOK, "http.thermo_hot", run)
				lat[c] = append(lat[c], float64(time.Since(start).Nanoseconds())/1e6)
				if err != nil {
					errs[c] = err
					return
				}
				if bytes.Contains(raw[:min(len(raw), 64)], []byte(`"cached": true`)) {
					cached[c]++
				}
				if !bytes.Equal(raw, want[g]) && errs[c] == nil {
					errs[c] = fmt.Errorf("hot grid %d differs from its cold response", g)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.HotWallS = time.Since(hotStart).Seconds()
	for c := range lat {
		ph.Hot = append(ph.Hot, lat[c]...)
		ph.HotCached += cached[c]
		if errs[c] != nil && ph.Mismatch == nil {
			ph.Mismatch = errs[c]
		}
	}
	return ph, nil
}

// syntheticDOS is a seeded 4,096-bin DOS whose ln g spans ≈ 10,000 — the
// span the paper reports for its largest alloy — so /v1/thermo has real
// reweighting to do, which a 48-bin sampled DOS cannot give it.
func syntheticDOS(seed uint64, bins int) ([]byte, error) {
	src := rng.New(seed)
	d, err := dos.New(-40, 10, bins)
	if err != nil {
		return nil, err
	}
	const span = 10000.0
	for i := range d.LogG {
		x := (float64(i) + 0.5) / float64(bins)
		d.LogG[i] = span*(1-(2*x-1)*(2*x-1)) + src.Float64()
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
