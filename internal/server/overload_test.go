package server

// Overload test suite: burst traffic against a 1-slot concurrency
// limiter, token-bucket rate limiting, circuit breaker
// trip/half-open/recover, cache-only degraded mode, drain under load,
// and the non-finite temperature regression. Run under -race in CI with
// -count=2 to catch flaky shedding behaviour.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepthermo/internal/dos"
)

// putDOS registers a test DOS directly in the registry (bypassing HTTP,
// so admission-control tests don't spend tokens/slots on setup).
func putDOS(t *testing.T, srv *Server) Artifact {
	t.Helper()
	d := testDOS(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := srv.Registry().Put(KindDOS, "overload-dos", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestParseTempsRejectsNonFinite is the regression test for the
// NaN-poisoning bug: strconv.ParseFloat accepts "NaN"/"Inf", and
// NaN <= 0 is false, so non-finite temperatures used to pass validation
// and poison the curve cache.
func TestParseTempsRejectsNonFinite(t *testing.T) {
	for _, bad := range [][2][]string{
		{{"NaN"}, nil},
		{{"Inf"}, nil},
		{{"+Inf"}, nil},
		{{"-Inf"}, nil},
		{{"300", "nan"}, nil},
		{nil, []string{"NaN:500:5"}},
		{nil, []string{"100:Inf:5"}},
		{nil, []string{"100:-inf:5"}},
	} {
		sweep := ""
		if len(bad[1]) > 0 {
			sweep = bad[1][0]
		}
		if _, err := parseTemps(bad[0], sweep); err == nil {
			t.Errorf("parseTemps(%v, %q) accepted non-finite input", bad[0], sweep)
		}
	}
	// Finite inputs still pass.
	if _, err := parseTemps([]string{"300"}, "100:500:5"); err != nil {
		t.Errorf("finite temps rejected: %v", err)
	}
}

// FuzzParseTemps: for any T= list (comma-separated here) and any sweep=
// string, parseTemps either refuses the query or returns 1 to
// maxTempsPerQuery temperatures, all finite and positive.
//
//	go test -run '^$' -fuzz '^FuzzParseTemps$' -fuzztime 30s ./internal/server/
func FuzzParseTemps(f *testing.F) {
	for _, seed := range [][2]string{
		{"300", ""},
		{"", "100:3500:50"},
		{"300,400", "100:500:5"},
		{"NaN", ""},
		{"", "100:Inf:5"},
		{"", "0:1:1"},
		{"", "-1e308:1e308:3"},
		{"1e-320", ""},
		{"300", "1:2:10000"},
		{"", "100:3500:0"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, tlist, sweep string) {
		var ts []string
		if tlist != "" {
			ts = strings.Split(tlist, ",")
		}
		temps, err := parseTemps(ts, sweep)
		if err != nil {
			return
		}
		if len(temps) < 1 || len(temps) > maxTempsPerQuery {
			t.Fatalf("parseTemps(%q, %q) returned %d temperatures", ts, sweep, len(temps))
		}
		for _, v := range temps {
			if !isFinite(v) || v <= 0 {
				t.Fatalf("parseTemps(%q, %q) returned temperature %g", ts, sweep, v)
			}
		}
	})
}

func TestThermoNaNReturns400(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	info := putDOS(t, srv)
	for _, q := range []string{"T=NaN", "T=Inf", "T=-Inf", "sweep=NaN:500:5", "sweep=100:Inf:5"} {
		resp, err := http.Get(ts.URL + "/v1/thermo?artifact=" + info.ID + "&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if srv.cache.Len() != 0 {
		t.Errorf("non-finite query left %d poisoned cache entries", srv.cache.Len())
	}
}

// TestOverloadBurstShedsCleanly is the acceptance burst: 50 concurrent
// /v1/thermo requests against a 1-slot limiter yield only 200s and
// 503s-with-Retry-After — no hangs, no 500s.
func TestOverloadBurstShedsCleanly(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxWait: time.Millisecond})
	info := putDOS(t, srv)

	// Slow the protected backend down so requests genuinely overlap.
	real := srv.reg.DOS
	srv.setDOSLoader(func(id string) (*dos.LogDOS, error) {
		time.Sleep(2 * time.Millisecond)
		return real(id)
	})

	const n = 50
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct grids: every request is a cache miss.
			resp, err := http.Get(fmt.Sprintf("%s/v1/thermo?artifact=%s&T=%d", ts.URL, info.ID, 300+i))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("503 response %d missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 503", i, c)
		}
	}
	if ok == 0 {
		t.Error("burst produced no 200s")
	}
	if shed == 0 {
		t.Error("burst produced no 503s against a 1-slot limiter")
	}
	if got := srv.limiter.Shed(); got < int64(shed) {
		t.Errorf("limiter shed counter %d < observed 503s %d", got, shed)
	}

	// The shed events are visible on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `dtserve_shed_total{reason="concurrency"}`) {
		t.Error("metrics missing concurrency shed counter")
	}
}

func TestRateLimiterRejectsWith429(t *testing.T) {
	// Refill rate so slow the bucket effectively never recovers during
	// the test: burst of 2, then 429s.
	srv, ts := newTestServer(t, Config{RatePerSec: 1e-6, RateBurst: 2})
	info := putDOS(t, srv)

	url := ts.URL + "/v1/thermo?artifact=" + info.ID + "&T=300"
	var got []int
	for i := 0; i < 5; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 missing Retry-After")
		}
		resp.Body.Close()
		got = append(got, resp.StatusCode)
	}
	want := []int{200, 200, 429, 429, 429}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request sequence %v, want %v", got, want)
		}
	}
	if srv.rate.Rejected() != 3 {
		t.Errorf("rate rejected counter = %d, want 3", srv.rate.Rejected())
	}
	// Control plane is exempt: probes still answer while rate-limited.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s shed by rate limiter: %d", path, resp.StatusCode)
		}
	}
}

// TestBreakerTripHalfOpenRecover walks the breaker state machine through
// injected registry failures: trip on consecutive failures, cache-only
// degraded mode while open, half-open probe after the cooldown, recovery.
func TestBreakerTripHalfOpenRecover(t *testing.T) {
	srv, ts := newTestServer(t, Config{BreakerFailures: 2, BreakerCooldown: 100 * time.Millisecond})
	info := putDOS(t, srv)

	// Prime the cache while healthy.
	var primed struct {
		Cached   bool `json:"cached"`
		Degraded bool `json:"degraded"`
	}
	resp := getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=300", &primed)
	if resp.StatusCode != http.StatusOK || primed.Degraded {
		t.Fatalf("healthy query: %d degraded=%v", resp.StatusCode, primed.Degraded)
	}

	// Break the backend: every uncached read fails.
	var calls atomic.Int64
	srv.setDOSLoader(func(id string) (*dos.LogDOS, error) {
		calls.Add(1)
		return nil, fmt.Errorf("server: data-dir read failed: injected disk fault")
	})

	// Two consecutive failures trip the breaker (503 each, with Retry-After).
	for i := 0; i < 2; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/thermo?artifact=%s&T=%d", ts.URL, info.ID, 400+i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failure %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("failure %d: missing Retry-After", i)
		}
	}
	if st := srv.breaker.State(); st != breakerOpen {
		t.Fatalf("breaker %v after %d failures, want open", st, 2)
	}
	if srv.breaker.Trips() != 1 {
		t.Errorf("trips = %d, want 1", srv.breaker.Trips())
	}

	// Open breaker: /readyz reports not-ready for load balancers.
	readyResp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(readyResp.Body)
	readyResp.Body.Close()
	if readyResp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rbody), "breaker") {
		t.Errorf("readyz with open breaker: %d %s", readyResp.StatusCode, rbody)
	}

	// Degraded mode: the cached grid is still served, marked degraded,
	// without touching the broken backend; uncached grids are shed.
	before := calls.Load()
	var deg struct {
		Cached   bool `json:"cached"`
		Degraded bool `json:"degraded"`
	}
	resp = getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=300", &deg)
	if resp.StatusCode != http.StatusOK || !deg.Cached || !deg.Degraded {
		t.Fatalf("cached query while open: %d cached=%v degraded=%v", resp.StatusCode, deg.Cached, deg.Degraded)
	}
	uncached, err := http.Get(ts.URL + "/v1/thermo?artifact=" + info.ID + "&T=999")
	if err != nil {
		t.Fatal(err)
	}
	uncached.Body.Close()
	if uncached.StatusCode != http.StatusServiceUnavailable || uncached.Header.Get("Retry-After") == "" {
		t.Fatalf("uncached query while open: %d", uncached.StatusCode)
	}
	if calls.Load() != before {
		t.Errorf("open breaker still hit the backend (%d -> %d calls)", before, calls.Load())
	}

	// Heal the backend; after the cooldown a half-open probe recovers.
	srv.setDOSLoader(srv.reg.DOS)
	time.Sleep(150 * time.Millisecond)
	var rec struct {
		Cached   bool `json:"cached"`
		Degraded bool `json:"degraded"`
	}
	resp = getJSON(t, ts.URL+"/v1/thermo?artifact="+info.ID+"&T=500", &rec)
	if resp.StatusCode != http.StatusOK || rec.Degraded {
		t.Fatalf("probe after cooldown: %d degraded=%v", resp.StatusCode, rec.Degraded)
	}
	if st := srv.breaker.State(); st != breakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	readyResp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyResp.Body.Close()
	if readyResp.StatusCode != http.StatusOK {
		t.Errorf("readyz after recovery: %d", readyResp.StatusCode)
	}
}

// TestBreakerHalfOpenSingleProbe: in half-open, exactly one probe is
// admitted at a time; a failed probe reopens immediately.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, 10*time.Millisecond)
	b.failure()
	if b.State() != breakerOpen {
		t.Fatalf("state %v after threshold failure, want open", b.State())
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe not admitted")
	}
	// Second caller while the probe is in flight is rejected.
	if b.allow() {
		t.Fatal("half-open admitted two concurrent probes")
	}
	b.failure() // probe failed: straight back to open
	if b.State() != breakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second cooldown elapsed but probe not admitted")
	}
	b.success()
	if b.State() != breakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	if b.Trips() != 2 {
		t.Errorf("trips = %d, want 2", b.Trips())
	}
}

// TestDrainUnderLoad: SIGTERM semantics at the Server level. During a
// query burst, BeginDrain flips /readyz to 503 and stops admitting jobs
// while the data plane keeps answering; Drain then finishes or cancels
// in-flight work before the listener would close.
func TestDrainUnderLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	info := putDOS(t, srv)

	// A long-running job occupies the worker when the drain begins.
	long := tinySampleSpec()
	long.DOS.LnFFinal = 1e-12
	job := submitJob(t, ts.URL, long)
	waitFor(t, 30*time.Second, "job to start", func() bool {
		jb, _ := srv.jobs.Get(job.ID)
		return jb.State == JobRunning
	})

	// Query burst concurrent with the drain.
	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/thermo?artifact=%s&T=%d", ts.URL, info.ID, 300+(g*1000+i)%2000))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					errs <- fmt.Errorf("burst request: status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}

	// Readiness flips before any listener teardown.
	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz during drain: %d %s", resp.StatusCode, body)
	}

	// Liveness stays green — a draining server must not be restarted.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d", resp.StatusCode)
	}

	// New jobs are refused with Retry-After; queries still answer.
	specBody, _ := json.Marshal(tinySampleSpec())
	postResp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusServiceUnavailable || postResp.Header.Get("Retry-After") == "" {
		t.Fatalf("job submit during drain: %d", postResp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/thermo?artifact=" + info.ID + "&T=300")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("query during drain: %d", getResp.StatusCode)
	}

	// Drain with a short deadline: the long job is cancelled (its partial
	// DOS is preserved through the normal cancellation path).
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { srv.Drain(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}
	jb, _ := srv.jobs.Get(job.ID)
	if jb.State != JobCancelled && jb.State != JobDone {
		t.Fatalf("job %s after drain, want cancelled or done (err %q)", jb.State, jb.Error)
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDrainWaitsForQuickJobs: a drain with headroom lets queued and
// running jobs finish instead of cancelling them.
func TestDrainWaitsForQuickJobs(t *testing.T) {
	ran := make(chan string, 8)
	jm := NewJobManager(1, 8, func(ctx context.Context, jb Job) (map[string]any, []string, error) {
		time.Sleep(20 * time.Millisecond)
		ran <- jb.ID
		return map[string]any{"ok": true}, nil, nil
	})
	var ids []string
	for i := 0; i < 3; i++ {
		jb, err := jm.Submit(JobSpec{Type: JobSample})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jm.Drain(ctx)
	for _, id := range ids {
		jb, _ := jm.Get(id)
		if jb.State != JobDone {
			t.Errorf("job %s finished %s after graceful drain, want done", id, jb.State)
		}
	}
	if _, err := jm.Submit(JobSpec{Type: JobSample}); err == nil {
		t.Error("drained manager accepted a submission")
	}
}

// TestCurveCacheSize1UnderHammer: concurrent queries alternating two
// grids against a size-1 LRU — constant eviction — stay correct and the
// cache never exceeds capacity.
func TestCurveCacheSize1UnderHammer(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 1})
	info := putDOS(t, srv)
	urls := []string{
		ts.URL + "/v1/thermo?artifact=" + info.ID + "&sweep=200:3000:25",
		ts.URL + "/v1/thermo?artifact=" + info.ID + "&sweep=300:2000:25",
	}

	// Reference responses, fetched serially.
	var want [2]json.RawMessage
	for i, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Points json.RawMessage `json:"points"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want[i] = out.Points
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % 2
				resp, err := http.Get(urls[k])
				if err != nil {
					errs <- err
					return
				}
				var out struct {
					Points json.RawMessage `json:"points"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("hammer status %d", resp.StatusCode)
					return
				}
				if !bytes.Equal(out.Points, want[k]) {
					errs <- fmt.Errorf("grid %d served inconsistent points under eviction pressure", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if srv.cache.Len() > 1 {
		t.Errorf("size-1 cache holds %d entries", srv.cache.Len())
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := fmt.Sprintf(`{"type":"sample","name":%q}`, strings.Repeat("x", 1024))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job spec: status %d, want 413", resp.StatusCode)
	}
}

// TestRequestDeadlinePropagates: data-plane handlers see a context
// deadline derived from Config.RequestTimeout.
func TestRequestDeadlinePropagates(t *testing.T) {
	srv, err := New(Config{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var sawDeadline bool
	req, _ := http.NewRequest(http.MethodGet, "/probe", nil)
	w := &statusWriter{ResponseWriter: discardResponseWriter{}, code: 200}
	srv.serveLimited(w, req, func(w http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
	})
	if !sawDeadline {
		t.Fatal("handler context carries no deadline")
	}
}

type discardResponseWriter struct{}

func (discardResponseWriter) Header() http.Header         { return http.Header{} }
func (discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponseWriter) WriteHeader(int)             {}

// TestTokenBucketRefill exercises the bucket arithmetic with an
// injected clock.
func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	b := newTokenBucket(2, 2) // 2 rps, burst 2
	b.now = func() time.Time { return now }
	b.tokens, b.last = 2, now

	if ok, _ := b.allow(); !ok {
		t.Fatal("full bucket rejected")
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("burst capacity rejected")
	}
	ok, retry := b.allow()
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %s, want (0, 1s]", retry)
	}
	now = now.Add(time.Second) // refills 2 tokens
	if ok, _ := b.allow(); !ok {
		t.Fatal("refilled bucket rejected")
	}
	if math.IsNaN(b.tokens) {
		t.Fatal("token arithmetic produced NaN")
	}
}
