package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"deepthermo"
	"deepthermo/internal/chaos"
	"deepthermo/internal/dos"
	"deepthermo/internal/fleet"
	"deepthermo/internal/thermo"
)

// maxTempsPerQuery bounds one /v1/thermo request's temperature grid.
const maxTempsPerQuery = 10000

// maxArtifactBytes bounds an artifact upload body.
const maxArtifactBytes = 64 << 20

// Config configures a Server.
type Config struct {
	// Workers is the sampling/training worker-pool size (default 2).
	Workers int
	// QueueDepth bounds pending jobs (default 64).
	QueueDepth int
	// CacheSize bounds the reweighted-curve LRU (default 128 curves).
	CacheSize int
	// DataDir enables artifact persistence when non-empty, plus the
	// crash-safety machinery that depends on it: a write-ahead job journal
	// (jobs that were running when the process died are requeued as
	// interrupted on restart) and per-job REWL checkpoint directories that
	// interrupted jobs resume from.
	DataDir string
	// RetryMax bounds how many times a failing job may run before it is
	// marked failed for good (default 1: no automatic retries).
	RetryMax int
	// RetryBackoff is the initial exponential retry delay (default 1s).
	RetryBackoff time.Duration

	// FleetDir enables fleet mode when non-empty: N dtserve replicas share
	// this directory as a lease-coordinated job queue, artifact store, and
	// checkpoint store. Any replica may claim any submitted job; a replica
	// that dies mid-job has its lease expire and the job is taken over
	// (resuming from the last REWL checkpoint) by a survivor. Fleet mode
	// supersedes the single-process journal: the shared state records are
	// the durable job log.
	FleetDir string
	// ReplicaID is this replica's unique identity within the fleet
	// (required with FleetDir). Baked into job and artifact IDs.
	ReplicaID string
	// LeaseTTL is how long a job lease stays valid without renewal
	// (default 10s). See fleet.Config.TTL.
	LeaseTTL time.Duration
	// LeaseHeartbeat is the lease renewal cadence (default LeaseTTL/3).
	LeaseHeartbeat time.Duration
	// FleetPlan/FleetRank optionally inject deterministic lease faults for
	// chaos tests (see internal/chaos).
	FleetPlan *chaos.Plan
	FleetRank int

	// MaxInFlight bounds concurrently served data-plane requests
	// (default 256; negative disables the limiter). Excess requests wait
	// up to MaxWait for a slot and are then shed with 503 + Retry-After.
	// Control-plane probes (/healthz, /readyz, /metrics) are exempt.
	MaxInFlight int
	// MaxWait is how long an over-limit request may wait for a slot
	// before being shed (default 100ms).
	MaxWait time.Duration
	// RatePerSec enables token-bucket rate limiting of data-plane
	// requests at this sustained rate (0 disables). Rejected requests
	// get 429 + Retry-After.
	RatePerSec float64
	// RateBurst is the bucket size (default 2×RatePerSec).
	RateBurst int
	// RequestTimeout is the per-request deadline propagated through the
	// request context (default 30s; negative disables).
	RequestTimeout time.Duration
	// MaxBodyBytes caps JSON request bodies such as job specs
	// (default 1 MiB). Artifact uploads are capped separately at
	// maxArtifactBytes.
	MaxBodyBytes int64
	// BreakerFailures is how many consecutive registry-read failures
	// open the /v1/thermo circuit breaker (default 5).
	BreakerFailures int
	// BreakerCooldown is the open → half-open delay (default 5s).
	BreakerCooldown time.Duration

	// Logf receives one line per job state transition; nil disables.
	Logf func(format string, args ...any)
}

// Server is the dtserve HTTP subsystem: job manager + artifact registry +
// cached thermodynamics query path + observability endpoints, wrapped in
// an overload-protection layer (concurrency limiter, token bucket,
// per-request deadlines, registry circuit breaker, drain-aware
// readiness).
type Server struct {
	cfg     Config
	reg     *Registry
	jobs    *JobManager
	cache   *curveCache
	metrics *Metrics
	mux     *http.ServeMux
	started time.Time

	// fleetStore is non-nil in fleet mode (Config.FleetDir set): the shared
	// lease/state/artifact store this replica coordinates through.
	fleetStore *fleet.Store

	limiter *concLimiter
	rate    *tokenBucket
	breaker *breaker
	// dosLoad resolves a DOS artifact for /v1/thermo; defaults to the
	// registry read and is swappable (atomically — tests inject backend
	// faults while requests are in flight) via setDOSLoader.
	dosLoad atomic.Value // func(string) (*dos.LogDOS, error)

	draining   atomic.Bool // set by BeginDrain; /readyz flips to 503
	replayDone atomic.Bool // journal replay finished (readiness gate)

	// flights coalesces concurrent identical uncached /v1/thermo queries
	// into one DOS load + reweight (see coalesce.go).
	flights *flightGroup

	deadlineHits    Counter // requests whose deadline expired mid-handler
	drainRejects    Counter // job submissions rejected while draining
	thermoCoalesced Counter // thermo queries that waited on another's flight
}

// New wires a Server. Call Close to stop the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 100 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	var fl *fleet.Store
	if cfg.FleetDir != "" {
		var err error
		fl, err = fleet.Open(fleet.Config{
			Dir:     cfg.FleetDir,
			Replica: cfg.ReplicaID,
			TTL:     cfg.LeaseTTL,
			Plan:    cfg.FleetPlan,
			Rank:    cfg.FleetRank,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening fleet store: %w", err)
		}
	}
	artDir := cfg.DataDir
	if fl != nil {
		// Fleet mode: artifacts live in the shared directory so any replica
		// can serve any replica's results.
		artDir = fl.ArtifactsDir()
	}
	reg, err := NewRegistry(artDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		fleetStore: fl,
		cache:      newCurveCache(cfg.CacheSize),
		metrics:    NewMetrics(),
		mux:        http.NewServeMux(),
		started:    time.Now(),
		limiter:    newConcLimiter(cfg.MaxInFlight, cfg.MaxWait),
		rate:       newTokenBucket(cfg.RatePerSec, cfg.RateBurst),
		breaker:    newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
		flights:    newFlightGroup(),
	}
	s.setDOSLoader(s.reg.DOS)
	s.jobs = NewJobManager(cfg.Workers, cfg.QueueDepth, s.runJob)
	if cfg.RetryMax > 0 {
		s.jobs.SetRetryPolicy(cfg.RetryMax, cfg.RetryBackoff)
	}
	switch {
	case fl != nil:
		reg.SetIDPrefix(cfg.ReplicaID)
		s.jobs.EnableFleet(fl, cfg.LeaseHeartbeat)
	case cfg.DataDir != "":
		recovered, err := s.jobs.EnableJournal(filepath.Join(cfg.DataDir, "jobs.journal"))
		if err != nil {
			s.jobs.Close()
			return nil, fmt.Errorf("server: opening job journal: %w", err)
		}
		for _, jb := range recovered {
			s.logf("job %s recovered as %s after restart", jb.ID, jb.State)
		}
	}
	// Journal replay (and recovered-job requeue) is complete; until this
	// point /readyz would report not-ready were the handler already
	// reachable.
	s.replayDone.Store(true)
	s.registerMetrics()
	s.routes()
	return s, nil
}

// BeginDrain puts the server into draining mode: /readyz flips to 503 so
// load balancers stop routing here, and new job submissions are rejected
// with 503 + Retry-After. Already-accepted work keeps running and the
// data plane keeps answering queries on existing connections. Safe to
// call more than once.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.jobs.StopAdmitting()
		s.logf("draining: readiness withdrawn, job admission stopped")
	}
}

// Drain performs graceful shutdown of the job tier: BeginDrain, then wait
// for queued and running jobs to finish. When ctx expires first, the
// remaining jobs are cancelled — running REWL jobs observe the
// cancellation within a sweep and persist partial DOS artifacts, and
// journalled jobs are recovered as interrupted on the next start.
func (s *Server) Drain(ctx context.Context) {
	s.BeginDrain()
	s.jobs.Drain(ctx)
}

// setDOSLoader swaps the function that resolves DOS artifacts for
// /v1/thermo. Tests use it to inject registry/disk faults behind the
// circuit breaker.
func (s *Server) setDOSLoader(fn func(id string) (*dos.LogDOS, error)) { s.dosLoad.Store(fn) }

func (s *Server) loadDOS(id string) (*dos.LogDOS, error) {
	return s.dosLoad.Load().(func(id string) (*dos.LogDOS, error))(id)
}

// Close stops the worker pool, cancelling running jobs.
func (s *Server) Close() { s.jobs.Close() }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the artifact registry (used by cmd/dtserve preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Fleet exposes the shared fleet store; nil outside fleet mode.
func (s *Server) Fleet() *fleet.Store { return s.fleetStore }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) registerMetrics() {
	for _, st := range States {
		st := st
		s.metrics.Register("dtserve_jobs", fmt.Sprintf("state=%q", st), "gauge",
			"Jobs by lifecycle state.", func() float64 { return float64(s.jobs.CountByState(st)) })
	}
	s.metrics.Register("dtserve_job_queue_depth", "", "gauge",
		"Jobs waiting for a worker.", func() float64 { return float64(s.jobs.QueueDepth()) })
	s.metrics.Register("dtserve_workers", "", "gauge",
		"Worker-pool size.", func() float64 { return float64(s.jobs.Workers()) })
	s.metrics.Register("dtserve_workers_busy", "", "gauge",
		"Workers currently executing a job.", func() float64 { return float64(s.jobs.Busy()) })
	s.metrics.Register("dtserve_artifacts", "", "gauge",
		"Artifacts in the registry.", func() float64 { return float64(s.reg.Len()) })
	s.metrics.Register("dtserve_curve_cache_entries", "", "gauge",
		"Reweighted curves resident in the LRU.", func() float64 { return float64(s.cache.Len()) })
	s.metrics.Register("dtserve_curve_cache_hits_total", "", "counter",
		"Thermo queries answered from the curve cache.", func() float64 { h, _ := s.cache.Stats(); return float64(h) })
	s.metrics.Register("dtserve_curve_cache_misses_total", "", "counter",
		"Thermo queries that reweighted the DOS.", func() float64 { _, m := s.cache.Stats(); return float64(m) })
	s.metrics.Register("dtserve_thermo_coalesced_total", "", "counter",
		"Thermo queries served by waiting on an identical in-flight query.",
		func() float64 { return float64(s.thermoCoalesced.Value()) })
	s.metrics.Register("dtserve_uptime_seconds", "", "gauge",
		"Seconds since server start.", func() float64 { return time.Since(s.started).Seconds() })
	s.metrics.Register("dtserve_inflight_requests", "", "gauge",
		"Data-plane requests currently holding a concurrency slot.",
		func() float64 { return float64(s.limiter.InFlight()) })
	s.metrics.Register("dtserve_shed_total", `reason="concurrency"`, "counter",
		"Requests shed by overload protection.", func() float64 { return float64(s.limiter.Shed()) })
	s.metrics.Register("dtserve_shed_total", `reason="rate"`, "counter",
		"Requests shed by overload protection.", func() float64 { return float64(s.rate.Rejected()) })
	s.metrics.Register("dtserve_shed_total", `reason="breaker"`, "counter",
		"Requests shed by overload protection.", func() float64 { return float64(s.breaker.Rejected()) })
	s.metrics.Register("dtserve_shed_total", `reason="draining"`, "counter",
		"Requests shed by overload protection.", func() float64 { return float64(s.drainRejects.Value()) })
	s.metrics.Register("dtserve_request_deadline_exceeded_total", "", "counter",
		"Requests whose per-request deadline expired before the handler finished.",
		func() float64 { return float64(s.deadlineHits.Value()) })
	s.metrics.Register("dtserve_breaker_state", "", "gauge",
		"Registry circuit breaker state (0 closed, 1 open, 2 half-open).",
		func() float64 { return float64(s.breaker.State()) })
	s.metrics.Register("dtserve_breaker_trips_total", "", "counter",
		"Transitions of the registry circuit breaker into the open state.",
		func() float64 { return float64(s.breaker.Trips()) })
	if fl := s.fleetStore; fl != nil {
		s.metrics.Register("dtserve_fleet_leases_held", "", "gauge",
			"Job leases this replica currently holds.", func() float64 { return float64(fl.Held()) })
		s.metrics.Register("dtserve_fleet_claims_total", "", "counter",
			"Fresh job claims by this replica.", func() float64 { return float64(fl.Claims()) })
		s.metrics.Register("dtserve_fleet_takeovers_total", "", "counter",
			"Jobs taken over from an expired lease of another holder.", func() float64 { return float64(fl.Takeovers()) })
		s.metrics.Register("dtserve_fleet_heartbeats_total", "", "counter",
			"Successful lease renewals.", func() float64 { return float64(fl.Heartbeats()) })
		s.metrics.Register("dtserve_fleet_heartbeat_failures_total", "", "counter",
			"Lease renewals that failed (fenced or IO error).", func() float64 { return float64(fl.HeartbeatFails()) })
		s.metrics.Register("dtserve_fleet_fence_rejections_total", "", "counter",
			"Stale-owner writes rejected by fencing-token validation.", func() float64 { return float64(fl.FenceRejections()) })
	}
	s.metrics.Register("dtserve_ready", "", "gauge",
		"1 when /readyz reports ready, else 0.",
		func() float64 {
			if len(s.notReadyReasons()) == 0 {
				return 1
			}
			return 0
		})
}

func (s *Server) routes() {
	// Control plane: probes and scrapes are never shed — a load balancer
	// must be able to learn the server is overloaded.
	s.route("GET /healthz", s.handleHealthz, false)
	s.route("GET /readyz", s.handleReadyz, false)
	s.route("GET /metrics", s.handleMetrics, false)
	// Data plane: admission-controlled.
	s.route("POST /v1/jobs", s.handleSubmitJob, true)
	s.route("GET /v1/jobs", s.handleListJobs, true)
	s.route("GET /v1/jobs/{id}", s.handleGetJob, true)
	s.route("DELETE /v1/jobs/{id}", s.handleCancelJob, true)
	s.route("GET /v1/artifacts", s.handleListArtifacts, true)
	s.route("POST /v1/artifacts", s.handleUploadArtifact, true)
	s.route("GET /v1/artifacts/{id}", s.handleGetArtifact, true)
	s.route("GET /v1/artifacts/{id}/data", s.handleArtifactData, true)
	s.route("DELETE /v1/artifacts/{id}", s.handleDeleteArtifact, true)
	s.route("GET /v1/thermo", s.handleThermo, true)
}

// route registers pattern with latency/status instrumentation, labelling
// the metrics with the route pattern (bounded cardinality, not raw URLs).
// When limited is true the handler runs behind the admission-control
// chain: token-bucket rate limit (429), bounded-wait concurrency limit
// (503 + Retry-After), and a per-request deadline on the context.
func (s *Server) route(pattern string, h http.HandlerFunc, limited bool) {
	label := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		label = pattern[i+1:]
	}
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if limited {
			s.serveLimited(sw, r, h)
		} else {
			h(sw, r)
		}
		s.metrics.ObserveRequest(label, sw.code, time.Since(start))
	}))
}

// serveLimited is the admission-control chain wrapped around every
// data-plane handler.
func (s *Server) serveLimited(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if ok, retry := s.rate.allow(); !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry after %s", retry.Round(time.Millisecond))
		return
	}
	if !s.limiter.acquire(r.Context()) {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.MaxWait))
		writeError(w, http.StatusServiceUnavailable, "server at concurrency limit, retry later")
		return
	}
	defer s.limiter.release()
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		defer func() {
			if ctx.Err() == context.DeadlineExceeded {
				s.deadlineHits.Inc()
			}
		}()
	}
	h(w, r)
}

// retryAfterSeconds renders a Retry-After header value, rounding up so
// clients never retry before the hint.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(s.started).String(),
		"workers": s.jobs.Workers(),
	})
}

// notReadyReasons lists why the server should not receive new traffic.
// Liveness (/healthz) and readiness (/readyz) are deliberately split: a
// draining or degraded server is still alive — restarting it would lose
// work — but a load balancer must stop routing to it.
func (s *Server) notReadyReasons() []string {
	var reasons []string
	if !s.replayDone.Load() {
		reasons = append(reasons, "journal replay in progress")
	}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if st := s.breaker.State(); st == breakerOpen {
		reasons = append(reasons, "registry circuit breaker open")
	}
	if s.fleetStore != nil {
		if err := s.fleetStore.Health(); err != nil {
			// The shared lease store is unreachable or failing scans: this
			// replica can't claim, heartbeat, or commit, so stop routing to it.
			reasons = append(reasons, fmt.Sprintf("fleet lease store unhealthy: %v", err))
		}
	}
	return reasons
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if reasons := s.notReadyReasons(); len(reasons) > 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":   false,
			"reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Draining: existing work finishes, but no new work is admitted.
		s.drainRejects.Inc()
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "server is draining, not admitting jobs")
		return
	}
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	job, err := s.jobs.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.logf("job %s submitted (type=%s)", job.ID, job.Spec.Type)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrJobFinished):
		writeJSON(w, http.StatusConflict, job)
		return
	case err != nil:
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.logf("job %s cancellation requested", job.ID)
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleListArtifacts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": s.reg.List()})
}

func (s *Server) handleUploadArtifact(w http.ResponseWriter, r *http.Request) {
	kind := ArtifactKind(r.URL.Query().Get("kind"))
	name := r.URL.Query().Get("name")
	// MaxBytesReader (not a bare LimitReader) so an oversized upload also
	// closes the connection instead of letting the client keep streaming.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "artifact exceeds %d bytes", maxArtifactBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	info, err := s.reg.Put(kind, name, data, map[string]string{"source": "upload"})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validArtifactID(id); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such artifact %q", id)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleArtifactData(w http.ResponseWriter, r *http.Request) {
	data, err := s.reg.Data(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, ErrBadID) {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleDeleteArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validArtifactID(id); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.reg.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.cache.InvalidateArtifact(id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleThermo is the hot query path: reweight a registered DOS artifact
// into canonical observables at the requested temperatures. Accepts
// repeated T params and/or sweep=lo:hi:n; repeat queries on the same grid
// are served from the curve LRU. Concurrent identical uncached queries
// are coalesced into one computation (see coalesce.go); the registry read
// inside it sits behind a circuit breaker: while it is open the endpoint
// degrades to cache-only — cached grids are still served (marked
// degraded) and uncached ones are shed with 503 + Retry-After instead of
// hammering the failing backend.
func (s *Server) handleThermo(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	artID := q.Get("artifact")
	if artID == "" {
		writeError(w, http.StatusBadRequest, "missing artifact parameter")
		return
	}
	temps, err := parseTemps(q["T"], q.Get("sweep"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := curveKey(artID, temps)
	if pts, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, thermoResponse(artID, pts, true, s.breaker.Open()))
		return
	}
	f, leader := s.flights.join(key)
	if leader {
		// Detached: the computation finishes even if this request's
		// context dies first, so waiters (and the cache) still get the
		// result the work already paid for.
		go func() {
			s.flights.finish(key, f, s.computeCurve(key, artID, temps))
		}()
	} else {
		s.thermoCoalesced.Inc()
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		// Waiters keep their own deadline: don't hold a dead connection
		// open waiting for a slow leader.
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded while coalesced on an in-flight identical query")
		return
	}
	res := f.res
	if res.status != 0 {
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		writeError(w, res.status, "%s", res.msg)
		return
	}
	writeJSON(w, http.StatusOK, thermoResponse(artID, res.pts, false, false))
}

func thermoResponse(artID string, pts []thermo.Point, cached, degraded bool) map[string]any {
	resp := map[string]any{"artifact": artID, "cached": cached, "points": pts}
	if degraded {
		resp["degraded"] = true
	}
	return resp
}

// parseTemps merges explicit T params with an optional lo:hi:n sweep.
// Non-finite values are rejected outright: strconv.ParseFloat accepts
// "NaN" and "Inf", and NaN <= 0 is false, so without the explicit check
// a T=NaN query would pass validation and poison the curve cache.
func parseTemps(ts []string, sweep string) ([]float64, error) {
	var temps []float64
	for _, tv := range ts {
		t, err := strconv.ParseFloat(tv, 64)
		if err != nil {
			return nil, fmt.Errorf("bad temperature %q", tv)
		}
		temps = append(temps, t)
	}
	if sweep != "" {
		parts := strings.Split(sweep, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad sweep %q (want lo:hi:n)", sweep)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		n, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || n < 1 {
			return nil, fmt.Errorf("bad sweep %q (want lo:hi:n)", sweep)
		}
		if !isFinite(lo) || !isFinite(hi) {
			return nil, fmt.Errorf("non-finite sweep bound in %q", sweep)
		}
		if n > maxTempsPerQuery {
			return nil, fmt.Errorf("sweep of %d points exceeds limit %d", n, maxTempsPerQuery)
		}
		temps = append(temps, thermo.TempRange(lo, hi, n)...)
	}
	if len(temps) == 0 {
		return nil, fmt.Errorf("no temperatures: pass T=<kelvin> (repeatable) or sweep=lo:hi:n")
	}
	if len(temps) > maxTempsPerQuery {
		return nil, fmt.Errorf("%d temperatures exceeds limit %d", len(temps), maxTempsPerQuery)
	}
	for _, t := range temps {
		if !isFinite(t) {
			return nil, fmt.Errorf("non-finite temperature %g", t)
		}
		if t <= 0 {
			return nil, fmt.Errorf("non-positive temperature %g", t)
		}
	}
	return temps, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// curveKey canonicalizes (artifact, grid) into the cache key.
func curveKey(artID string, temps []float64) string {
	var b strings.Builder
	b.WriteString(artID)
	b.WriteByte('|')
	for i, t := range temps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
	}
	return b.String()
}

// putArtifact commits a job-produced artifact. In fleet mode the registry
// write runs under the job's lease: the fencing token is re-validated
// inside the commit critical section, so a replica whose lease expired
// mid-run (the job was taken over elsewhere) cannot land a stale artifact
// in the shared store. The token and committing replica are recorded in
// the artifact metadata.
func (s *Server) putArtifact(jb Job, kind ArtifactKind, name string, data []byte, meta map[string]string) (Artifact, error) {
	if s.fleetStore == nil || jb.Fence == 0 {
		return s.reg.Put(kind, name, data, meta)
	}
	meta["fence"] = strconv.FormatUint(jb.Fence, 10)
	meta["replica"] = s.fleetStore.Replica()
	var info Artifact
	err := s.fleetStore.WithLease(jb.ID, jb.Fence, func() error {
		var perr error
		info, perr = s.reg.Put(kind, name, data, meta)
		return perr
	})
	return info, err
}

// runJob executes one job against the deepthermo facade. Artifacts
// produced before a failure or cancellation are still attached to the job
// — a cancelled REWL run persists the density of states of its last
// completed round (marked partial=true; none when no round completed) so
// the sampling already spent is not lost.
func (s *Server) runJob(ctx context.Context, jb Job) (map[string]any, []string, error) {
	spec := jb.Spec
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{
		Cells:  spec.System.Cells,
		Seed:   spec.System.Seed,
		Alloy:  spec.System.Alloy,
		Latent: spec.System.Latent,
		Hidden: spec.System.Hidden,
	})
	if err != nil {
		return nil, nil, err
	}
	result := map[string]any{}
	var artifacts []string
	baseMeta := func() map[string]string {
		return map[string]string{
			"job":   jb.ID,
			"alloy": orDefault(spec.System.Alloy, "NbMoTaW"),
			"cells": strconv.Itoa(sysCells(spec.System.Cells)),
			"seed":  strconv.FormatUint(spec.System.Seed, 10),
		}
	}

	needTrain := spec.Type == JobTrain || spec.Type == JobPipeline
	needSample := spec.Type == JobSample || spec.Type == JobPipeline

	if spec.Type == JobSample && spec.ModelArtifact != "" {
		data, err := s.reg.Data(spec.ModelArtifact)
		if err != nil {
			return result, artifacts, err
		}
		if err := sys.LoadProposalModel(bytes.NewReader(data)); err != nil {
			return result, artifacts, fmt.Errorf("loading model artifact %s: %w", spec.ModelArtifact, err)
		}
	}

	if needTrain {
		var dc *deepthermo.DataConfig
		if spec.Data != nil {
			dc = &deepthermo.DataConfig{
				TempLo:         spec.Data.TempLo,
				TempHi:         spec.Data.TempHi,
				LadderLen:      spec.Data.LadderLen,
				SamplesPerTemp: spec.Data.SamplesPerTemp,
			}
		}
		if _, err := sys.GenerateDataContext(ctx, dc); err != nil {
			return result, artifacts, err
		}
		var topts *deepthermo.TrainOptions
		if spec.Train != nil {
			topts = &deepthermo.TrainOptions{
				Epochs:         spec.Train.Epochs,
				BatchSize:      spec.Train.BatchSize,
				LR:             spec.Train.LR,
				Seed:           spec.Train.Seed,
				KLWarmupEpochs: spec.Train.KLWarmupEpochs,
			}
		}
		if err := sys.TrainProposalContext(ctx, topts); err != nil {
			return result, artifacts, err
		}
		var buf bytes.Buffer
		if err := sys.SaveProposalModel(&buf); err != nil {
			return result, artifacts, err
		}
		info, err := s.putArtifact(jb, KindModel, jobArtifactName(jb, "model"), buf.Bytes(), baseMeta())
		if err != nil {
			return result, artifacts, err
		}
		artifacts = append(artifacts, info.ID)
		result["model_artifact"] = info.ID
		s.logf("job %s produced %s", jb.ID, info.ID)
	}

	if needSample {
		dcfg := deepthermo.DOSConfig{
			Windows:  spec.DOS.Windows,
			Walkers:  spec.DOS.Walkers,
			Bins:     spec.DOS.Bins,
			Overlap:  spec.DOS.Overlap,
			LnFFinal: spec.DOS.LnFFinal,
			DLWeight: spec.DOS.DLWeight,
			NoDL:     spec.DOS.NoDL,
			OneOverT: spec.DOS.OneOverT,
			Adaptive: spec.DOS.Adaptive,
		}
		ckptDir := ""
		switch {
		case s.fleetStore != nil:
			// Fleet mode: checkpoints live in the shared directory so a
			// surviving replica taking over the job resumes the REWL run
			// from the dead owner's last committed checkpoint.
			ckptDir = s.fleetStore.CheckpointDir(jb.ID)
		case s.cfg.DataDir != "":
			// Per-job checkpoint dir: an interrupted job (crash, retry)
			// resumes the REWL run from its last committed checkpoint
			// instead of restarting the sampling from scratch.
			ckptDir = filepath.Join(s.cfg.DataDir, "checkpoints", jb.ID)
		}
		if ckptDir != "" {
			dcfg.CheckpointDir = ckptDir
			dcfg.CheckpointEvery = spec.DOS.CheckpointEvery
			dcfg.Resume = jb.Resume
		}
		res, runErr := sys.SampleDOSContext(ctx, dcfg)
		if res == nil {
			return result, artifacts, runErr
		}
		var buf bytes.Buffer
		if err := res.DOS.Save(&buf); err != nil {
			return result, artifacts, err
		}
		meta := baseMeta()
		meta["converged"] = strconv.FormatBool(res.Converged)
		meta["sweeps"] = strconv.FormatInt(res.Sweeps, 10)
		meta["rounds"] = strconv.Itoa(res.Rounds)
		if runErr != nil {
			meta["partial"] = "true"
		}
		info, err := s.putArtifact(jb, KindDOS, jobArtifactName(jb, "dos"), buf.Bytes(), meta)
		if err != nil {
			return result, artifacts, err
		}
		artifacts = append(artifacts, info.ID)
		result["dos_artifact"] = info.ID
		result["converged"] = res.Converged
		result["sweeps"] = res.Sweeps
		result["rounds"] = res.Rounds
		if res.Resumed {
			result["resumed"] = true
		}
		if res.FailedWalkers > 0 {
			result["failed_walkers"] = res.FailedWalkers
			result["degraded_windows"] = res.DegradedWindows
		}
		if res.Migrations > 0 {
			result["migrations"] = res.Migrations
		}
		s.logf("job %s produced %s (converged=%v sweeps=%d resumed=%v)", jb.ID, info.ID, res.Converged, res.Sweeps, res.Resumed)
		if runErr != nil {
			return result, artifacts, runErr
		}
		if ckptDir != "" {
			// The run finished; its checkpoint has served its purpose.
			os.RemoveAll(ckptDir)
		}
	}
	return result, artifacts, nil
}

func jobArtifactName(jb Job, suffix string) string {
	if jb.Name != "" {
		return jb.Name + "-" + suffix
	}
	return jb.ID + "-" + suffix
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func sysCells(c int) int {
	if c == 0 {
		return 3
	}
	return c
}
