// Package server implements the dtserve HTTP subsystem: asynchronous
// sampling/training jobs on a bounded worker pool, an artifact registry of
// trained proposal models and converged densities of states, and a cached
// thermodynamics query path.
//
// The split mirrors the paper's economics: converging ln g(E) is the
// expensive, hours-long phase, while answering a canonical-thermodynamics
// query against a converged DOS is a cheap log-domain reweighting. Jobs
// produce artifacts once; the query path serves them arbitrarily often.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepthermo/internal/fleet"
)

// JobType selects what a job computes.
type JobType string

const (
	// JobSample runs REWL density-of-states sampling, optionally seeded
	// with a trained proposal model artifact.
	JobSample JobType = "sample"
	// JobTrain generates ladder data and trains a proposal model.
	JobTrain JobType = "train"
	// JobPipeline trains a proposal model, then samples the DOS with it.
	JobPipeline JobType = "pipeline"
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	JobPending JobState = "pending"
	JobRunning JobState = "running"
	// JobInterrupted marks a job whose run was cut short without a verdict:
	// it was `running` when the server died, or it failed and awaits a
	// bounded-backoff retry. Interrupted jobs are requeued with Resume set
	// and continue from their last checkpoint.
	JobInterrupted JobState = "interrupted"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCancelled   JobState = "cancelled"
)

// States lists every job state, in lifecycle order.
var States = []JobState{JobPending, JobRunning, JobInterrupted, JobDone, JobFailed, JobCancelled}

// SystemSpec selects the alloy system a job operates on. Zero values take
// the deepthermo.NewSystem defaults.
type SystemSpec struct {
	Cells  int    `json:"cells,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Alloy  string `json:"alloy,omitempty"`
	Latent int    `json:"latent,omitempty"`
	Hidden int    `json:"hidden,omitempty"`
}

// DataSpec controls training-set generation (JobTrain/JobPipeline).
type DataSpec struct {
	TempLo         float64 `json:"temp_lo,omitempty"`
	TempHi         float64 `json:"temp_hi,omitempty"`
	LadderLen      int     `json:"ladder_len,omitempty"`
	SamplesPerTemp int     `json:"samples_per_temp,omitempty"`
}

// TrainSpec controls proposal-model training (JobTrain/JobPipeline).
type TrainSpec struct {
	Epochs         int     `json:"epochs,omitempty"`
	BatchSize      int     `json:"batch_size,omitempty"`
	LR             float64 `json:"lr,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	KLWarmupEpochs int     `json:"kl_warmup_epochs,omitempty"`
}

// DOSSpec controls REWL sampling (JobSample/JobPipeline). Zero values take
// the deepthermo.DOSConfig defaults. A spec that still carries the retired
// "batch_inference" field is decoded and the field ignored: it only ever
// chose between two DL paths with identical bits.
type DOSSpec struct {
	Windows  int     `json:"windows,omitempty"`
	Walkers  int     `json:"walkers,omitempty"`
	Bins     int     `json:"bins,omitempty"`
	Overlap  float64 `json:"overlap,omitempty"`
	LnFFinal float64 `json:"lnf_final,omitempty"`
	DLWeight float64 `json:"dl_weight,omitempty"`
	NoDL     bool    `json:"no_dl,omitempty"`
	// OneOverT switches the walkers to the Belardinelli-Pereyra 1/t
	// modification-factor schedule.
	OneOverT bool `json:"one_over_t,omitempty"`
	// Adaptive enables adaptive REWL parallelisation: walker rebalancing
	// from converged windows into stragglers at exchange-round
	// boundaries. The migration count is reported in the job result.
	Adaptive bool `json:"adaptive,omitempty"`
	// CheckpointEvery overrides how often (in REWL rounds) the run
	// checkpoints when the server has a DataDir; 0 takes the default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// JobSpec is the client-submitted description of a job.
type JobSpec struct {
	Type   JobType    `json:"type"`
	Name   string     `json:"name,omitempty"`
	System SystemSpec `json:"system"`
	Data   *DataSpec  `json:"data,omitempty"`
	Train  *TrainSpec `json:"train,omitempty"`
	DOS    DOSSpec    `json:"dos"`
	// ModelArtifact names a registry artifact holding a trained proposal
	// model to drive JobSample's DL proposal mixture.
	ModelArtifact string `json:"model_artifact,omitempty"`
}

// Validate checks the spec's job type.
func (s *JobSpec) Validate() error {
	switch s.Type {
	case JobSample, JobTrain, JobPipeline:
		return nil
	case "":
		s.Type = JobSample
		return nil
	default:
		return fmt.Errorf("unknown job type %q (want sample, train, or pipeline)", s.Type)
	}
}

// Job is the externally visible job record. Snapshots returned by the
// manager are value copies and safe to serialize concurrently with the
// job's progress.
type Job struct {
	ID        string         `json:"id"`
	Name      string         `json:"name,omitempty"`
	Spec      JobSpec        `json:"spec"`
	State     JobState       `json:"state"`
	Error     string         `json:"error,omitempty"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Artifacts []string       `json:"artifacts,omitempty"`
	Result    map[string]any `json:"result,omitempty"`
	// Attempts counts how many times the job has started running
	// (crash-recovery resumes and retries included); Resume tells the
	// runner to continue from the job's checkpoint if one exists.
	Attempts int  `json:"attempts,omitempty"`
	Resume   bool `json:"resume,omitempty"`
	// Fence is the fencing token of the lease this job runs under (fleet
	// mode only). Every artifact and shared-state commit presents it; a
	// stale token is rejected, so a paused ex-owner cannot clobber the
	// replica that took the job over.
	Fence uint64 `json:"fence,omitempty"`
}

// Runner executes one job. It must honor ctx (jobs are cancelled by
// cancelling it) and may return artifacts and a result summary even when
// it also returns an error — partial progress is recorded on the job.
type Runner func(ctx context.Context, job Job) (result map[string]any, artifacts []string, err error)

// Errors reported by the manager.
var (
	ErrQueueFull   = errors.New("server: job queue full")
	ErrClosed      = errors.New("server: job manager closed")
	ErrJobFinished = errors.New("server: job already finished")
)

// JobManager runs submitted jobs on a bounded pool of worker goroutines.
type JobManager struct {
	run     Runner
	workers int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*jobRec
	order   []string
	queue   chan *jobRec
	busy    int
	nextID  int
	closed  bool
	crashed bool

	journal   *journal
	retryMax  int
	retryBase time.Duration

	// Fleet mode: jobs live in a shared lease store instead of a private
	// journal. Submit enqueues to the store; the fleet loop claims work,
	// renews leases, and observes cancel markers.
	fleet     *fleet.Store
	hbEvery   time.Duration
	claimKick chan struct{}
	fleetStop chan struct{}
	fleetOnce sync.Once
	fleetWG   sync.WaitGroup
}

type jobRec struct {
	Job
	cancelJob context.CancelFunc // non-nil while running
	// cancelRequested distinguishes a user cancellation from a shutdown or
	// lease loss: in fleet mode only the former makes the job terminally
	// cancelled — the latter leaves it interrupted and reclaimable.
	cancelRequested bool
}

// NewJobManager starts `workers` workers draining a queue of at most
// `queueDepth` pending jobs.
func NewJobManager(workers, queueDepth int, run Runner) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	jm := &JobManager{
		run:     run,
		workers: workers,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*jobRec),
		queue:   make(chan *jobRec, queueDepth),
	}
	for i := 0; i < workers; i++ {
		jm.wg.Add(1)
		go jm.worker()
	}
	return jm
}

func (jm *JobManager) worker() {
	defer jm.wg.Done()
	for {
		select {
		case <-jm.ctx.Done():
			return
		case rec := <-jm.queue:
			jm.execute(rec)
		}
	}
}

func (jm *JobManager) execute(rec *jobRec) {
	jm.mu.Lock()
	if rec.State != JobPending && rec.State != JobInterrupted { // cancelled while queued
		jm.mu.Unlock()
		return
	}
	if jm.fleet != nil && rec.Fence == 0 {
		// The lease was lost (or handed back) while the job sat in the
		// local queue; whoever holds it now runs it.
		jm.mu.Unlock()
		return
	}
	if rec.cancelRequested {
		// Cancelled while queued (user request or fleet cancel marker).
		now := time.Now()
		rec.State = JobCancelled
		rec.Error = "cancelled before start"
		rec.Finished = &now
		jm.persistLocked(rec, time.Time{})
		jm.releaseLeaseLocked(rec)
		jm.mu.Unlock()
		return
	}
	now := time.Now()
	rec.State = JobRunning
	rec.Started = &now
	rec.Attempts++
	ctx, cancel := context.WithCancel(jm.ctx)
	rec.cancelJob = cancel
	jm.busy++
	fenced := jm.persistLocked(rec, time.Time{})
	if fenced {
		// A successor took the lease before we could even start: back out
		// without running — our artifacts would be fence-rejected anyway.
		rec.State = JobInterrupted
		rec.Error = "lease lost before start"
		rec.Started = nil
		rec.Attempts--
		rec.cancelJob = nil
		jm.busy--
		jm.mu.Unlock()
		cancel()
		return
	}
	snap := rec.Job
	jm.mu.Unlock()

	result, artifacts, err := jm.safeRun(ctx, snap)
	cancel()

	jm.mu.Lock()
	if jm.crashed {
		// Simulated kill -9 (see Crash): the process "died" before it
		// could record a verdict, so the journal's last word stays
		// `running` and restart-time recovery takes over. In fleet mode
		// the lease simply stops being renewed; a surviving replica takes
		// the job over within one TTL.
		jm.mu.Unlock()
		return
	}
	fin := time.Now()
	rec.Finished = &fin
	rec.cancelJob = nil
	rec.Result = result
	rec.Artifacts = artifacts
	notBefore := time.Time{}
	switch {
	case err == nil:
		rec.State = JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if jm.fleet != nil && !rec.cancelRequested {
			// Fleet shutdown/drain or lease loss, not a user cancel: the
			// job is interrupted, and releasing its lease (below) lets a
			// surviving replica resume it from the checkpoint immediately.
			rec.State = JobInterrupted
			rec.Error = err.Error()
			rec.Finished = nil
			rec.Resume = true
		} else {
			rec.State = JobCancelled
			rec.Error = err.Error()
		}
	case rec.Attempts < jm.retryMax:
		// Transient failure with retry budget left: park the job as
		// interrupted, resuming from its checkpoint. Locally that means a
		// requeue after an exponential backoff; in fleet mode the backoff
		// is published as the state record's NotBefore gate and the lease
		// released, so ANY replica may run the retry once it elapses.
		rec.State = JobInterrupted
		rec.Error = err.Error()
		rec.Finished = nil
		rec.Resume = true
		delay := jm.backoff(rec.Attempts)
		if jm.fleet == nil {
			jm.logJournal(rec)
			jm.busy--
			jm.mu.Unlock()
			time.AfterFunc(delay, func() { jm.requeue(rec) })
			return
		}
		notBefore = time.Now().Add(delay)
	default:
		rec.State = JobFailed
		rec.Error = err.Error()
	}
	jm.persistLocked(rec, notBefore)
	jm.releaseLeaseLocked(rec)
	jm.busy--
	jm.mu.Unlock()
}

// persistLocked records rec's current snapshot in the journal and, in
// fleet mode, in the shared state store under rec's fencing token. It
// reports whether the fleet write was fence-rejected (a successor owns
// the job now); journal and non-fence store failures are best-effort —
// the record is the recovery breadcrumb, not the live source of truth.
// Called with jm.mu held.
func (jm *JobManager) persistLocked(rec *jobRec, notBefore time.Time) (fenced bool) {
	jm.logJournal(rec)
	if jm.fleet == nil || rec.Fence == 0 {
		return false
	}
	payload, err := json.Marshal(rec.Job)
	if err != nil {
		return false
	}
	st := fleet.State{Job: rec.ID, Phase: phaseOf(rec.State), NotBefore: notBefore, Payload: payload}
	if err := jm.fleet.WriteState(st, rec.Fence); errors.Is(err, fleet.ErrFenced) {
		rec.Fence = 0
		return true
	}
	return false
}

// releaseLeaseLocked releases rec's lease (making the job immediately
// claimable by any replica) and clears a honored cancel marker. Called
// with jm.mu held after a terminal or interrupted transition.
func (jm *JobManager) releaseLeaseLocked(rec *jobRec) {
	if jm.fleet == nil || rec.Fence == 0 {
		return
	}
	_ = jm.fleet.Release(rec.ID, rec.Fence)
	rec.Fence = 0
	if rec.State == JobCancelled {
		jm.fleet.ClearCancel(rec.ID)
	}
}

// phaseOf maps a job state to its shared-store phase.
func phaseOf(st JobState) fleet.Phase {
	switch st {
	case JobPending:
		return fleet.Pending
	case JobRunning:
		return fleet.Running
	case JobInterrupted:
		return fleet.Interrupted
	case JobDone:
		return fleet.Done
	case JobFailed:
		return fleet.Failed
	default:
		return fleet.Cancelled
	}
}

// stateOfPhase is the inverse of phaseOf.
func stateOfPhase(p fleet.Phase) JobState {
	switch p {
	case fleet.Pending:
		return JobPending
	case fleet.Running:
		return JobRunning
	case fleet.Interrupted:
		return JobInterrupted
	case fleet.Done:
		return JobDone
	case fleet.Failed:
		return JobFailed
	default:
		return JobCancelled
	}
}

// jobFromState renders a shared-store record as a Job snapshot for
// replicas that do not hold the job locally. The payload is the owning
// replica's last full snapshot; the store's phase and fence are
// authoritative over it.
func jobFromState(st fleet.State) Job {
	var jb Job
	if err := json.Unmarshal(st.Payload, &jb); err != nil || jb.ID == "" {
		jb = Job{ID: st.Job, Submitted: st.Updated}
	}
	jb.State = stateOfPhase(st.Phase)
	jb.Fence = st.Fence
	return jb
}

// safeRun isolates Runner panics: a panicking walker or trainer fails its
// own job (message captured) instead of killing the worker pool.
func (jm *JobManager) safeRun(ctx context.Context, jb Job) (result map[string]any, artifacts []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: job panicked: %v", r)
		}
	}()
	return jm.run(ctx, jb)
}

// backoff returns the exponential retry delay for the given attempt
// count, capped at one minute.
func (jm *JobManager) backoff(attempts int) time.Duration {
	base := jm.retryBase
	if base <= 0 {
		base = time.Second
	}
	d := base
	for i := 1; i < attempts && d < time.Minute; i++ {
		d *= 2
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// requeue re-enqueues an interrupted job after its backoff, unless it was
// cancelled in the meantime or the manager is shutting down.
func (jm *JobManager) requeue(rec *jobRec) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed || rec.State != JobInterrupted {
		return
	}
	select {
	case jm.queue <- rec:
	default:
		now := time.Now()
		rec.State = JobFailed
		rec.Error = "queue full on retry"
		rec.Finished = &now
		jm.logJournal(rec)
	}
}

// logJournal appends rec's snapshot to the journal (if enabled). Called
// with jm.mu held.
func (jm *JobManager) logJournal(rec *jobRec) {
	if jm.journal != nil {
		// A failed journal write must not fail the job: the record is the
		// recovery breadcrumb, not the source of truth for a live server.
		_ = jm.journal.record(rec.Job)
	}
}

// EnableJournal turns on write-ahead journalling at path, first replaying
// any existing journal: finished jobs are restored as history, and jobs
// that were pending or running when the previous process died are requeued
// — `running` ones as `interrupted` with Resume set, so the runner
// continues from its last checkpoint. Call once, before any Submit; the
// returned slice holds the requeued jobs.
func (jm *JobManager) EnableJournal(path string) ([]Job, error) {
	jobs, jr, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.journal = jr
	var recovered []Job
	for _, jb := range jobs {
		if _, exists := jm.jobs[jb.ID]; exists {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(jb.ID, "job-%d", &n); err == nil && n > jm.nextID {
			jm.nextID = n
		}
		rec := &jobRec{Job: jb}
		switch rec.State {
		case JobRunning, JobInterrupted:
			rec.State = JobInterrupted
			rec.Error = "interrupted by server restart"
			rec.Resume = true
			rec.Finished = nil
		case JobPending:
		default:
			jm.jobs[rec.ID] = rec
			jm.order = append(jm.order, rec.ID)
			continue
		}
		jm.jobs[rec.ID] = rec
		jm.order = append(jm.order, rec.ID)
		jm.logJournal(rec)
		select {
		case jm.queue <- rec:
			recovered = append(recovered, rec.Job)
		default:
			now := time.Now()
			rec.State = JobFailed
			rec.Error = "queue full on recovery"
			rec.Finished = &now
			jm.logJournal(rec)
		}
	}
	return recovered, nil
}

// EnableFleet switches the manager to fleet mode over the given shared
// lease store: Submit enqueues jobs to the store instead of a local
// queue, and a background loop claims runnable jobs (its own and, after
// lease expiry, those of dead replicas), renews held leases every
// heartbeat interval (default TTL/3), observes cancel markers, and
// sweeps orphaned leases. Call once, before any Submit, instead of
// EnableJournal — the store is the journal.
func (jm *JobManager) EnableFleet(store *fleet.Store, heartbeat time.Duration) {
	if heartbeat <= 0 {
		heartbeat = store.TTL() / 3
	}
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	jm.mu.Lock()
	jm.fleet = store
	jm.hbEvery = heartbeat
	jm.claimKick = make(chan struct{}, 1)
	jm.fleetStop = make(chan struct{})
	// Restart safety: a replica reusing its identity must not mint job IDs
	// that collide with its own earlier submissions still in the store.
	prefix := "job-" + store.Replica() + "-"
	if states, err := store.States(); err == nil {
		for _, st := range states {
			if !strings.HasPrefix(st.Job, prefix) {
				continue
			}
			if n, err := strconv.Atoi(st.Job[len(prefix):]); err == nil && n > jm.nextID {
				jm.nextID = n
			}
		}
	}
	jm.mu.Unlock()
	jm.fleetWG.Add(1)
	go jm.fleetLoop()
}

// Fleet returns the shared lease store, nil outside fleet mode.
func (jm *JobManager) Fleet() *fleet.Store { return jm.fleet }

// kickClaim nudges the fleet loop to run a claim pass now (e.g. right
// after a local submission) instead of waiting out the tick.
func (jm *JobManager) kickClaim() {
	select {
	case jm.claimKick <- struct{}{}:
	default:
	}
}

func (jm *JobManager) fleetLoop() {
	defer jm.fleetWG.Done()
	tick := time.NewTicker(jm.hbEvery)
	defer tick.Stop()
	for {
		select {
		case <-jm.fleetStop:
			return
		case <-jm.claimKick:
		case <-tick.C:
		}
		jm.heartbeatHeld()
		jm.claimPass()
		jm.fleet.SweepOrphans()
	}
}

// heartbeatHeld renews every lease this replica holds and honors cancel
// markers on held jobs. A fenced renewal means a successor owns the job:
// the local run is cancelled and its record marked interrupted — its
// writes would be rejected anyway.
func (jm *JobManager) heartbeatHeld() {
	type held struct {
		id    string
		token uint64
	}
	jm.mu.Lock()
	var hs []held
	for _, rec := range jm.jobs {
		if rec.Fence != 0 && (rec.State == JobPending || rec.State == JobRunning || rec.State == JobInterrupted) {
			hs = append(hs, held{rec.ID, rec.Fence})
		}
	}
	jm.mu.Unlock()
	for _, h := range hs {
		if jm.fleet.Cancelled(h.id) {
			jm.mu.Lock()
			if rec, ok := jm.jobs[h.id]; ok && !rec.cancelRequested {
				rec.cancelRequested = true
				if rec.State == JobRunning && rec.cancelJob != nil {
					rec.cancelJob()
				}
			}
			jm.mu.Unlock()
		}
		err := jm.fleet.Heartbeat(h.id, h.token)
		if errors.Is(err, fleet.ErrFenced) {
			jm.mu.Lock()
			if rec, ok := jm.jobs[h.id]; ok && rec.Fence == h.token {
				rec.Fence = 0
				if rec.State == JobRunning && rec.cancelJob != nil {
					rec.cancelJob()
				} else {
					// Queued locally but no longer ours; the zero fence
					// makes execute skip it.
					rec.State = JobInterrupted
					rec.Error = "lease lost to another replica"
				}
			}
			jm.mu.Unlock()
		}
	}
}

// claimPass scans the shared store and claims every runnable job whose
// lease is claimable and whose retry gate (NotBefore) has elapsed.
func (jm *JobManager) claimPass() {
	jm.mu.Lock()
	closed := jm.closed
	jm.mu.Unlock()
	if closed {
		return
	}
	states, err := jm.fleet.States()
	if err != nil {
		return
	}
	now := time.Now()
	for _, st := range states {
		if st.Phase.Terminal() || now.Before(st.NotBefore) {
			continue
		}
		jm.mu.Lock()
		rec, exists := jm.jobs[st.Job]
		heldLocally := exists && rec.Fence != 0
		jm.mu.Unlock()
		if heldLocally || !jm.fleet.Claimable(st.Job) {
			continue
		}
		token, tookOver, err := jm.fleet.Acquire(st.Job)
		if err != nil {
			continue
		}
		jm.adopt(st.Job, token, tookOver)
	}
}

// adopt takes a freshly acquired job into the local queue (or retires it
// if a cancel marker is pending). Holding the lease, the state record
// cannot change underneath us.
func (jm *JobManager) adopt(id string, token uint64, tookOver bool) {
	st, err := jm.fleet.GetState(id)
	if err != nil || st.Phase.Terminal() {
		_ = jm.fleet.Release(id, token)
		return
	}
	jb := jobFromState(st)
	jb.Fence = token
	if jm.fleet.Cancelled(id) {
		now := time.Now()
		jb.State = JobCancelled
		jb.Error = "cancelled"
		jb.Finished = &now
		jm.recordAdopted(jb, token, false)
		return
	}
	// Resuming an interrupted or taken-over run continues from the shared
	// checkpoint instead of restarting the sampling.
	jb.Resume = tookOver || st.Phase == fleet.Running || st.Phase == fleet.Interrupted
	jb.State = JobPending
	if jb.Resume {
		jb.State = JobInterrupted
		if tookOver && st.Owner != jm.fleet.Replica() {
			jb.Error = "taken over from " + st.Owner
		}
	}
	jb.Started = nil
	jb.Finished = nil
	jm.recordAdopted(jb, token, true)
}

// recordAdopted installs an adopted job snapshot locally and either
// queues it (enqueue) or finalizes it as terminal.
func (jm *JobManager) recordAdopted(jb Job, token uint64, enqueue bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	rec, ok := jm.jobs[jb.ID]
	if !ok {
		rec = &jobRec{}
		jm.jobs[jb.ID] = rec
		jm.order = append(jm.order, jb.ID)
	}
	rec.Job = jb
	rec.cancelRequested = false
	if !enqueue {
		jm.persistLocked(rec, time.Time{})
		jm.releaseLeaseLocked(rec)
		return
	}
	if jm.closed {
		rec.Fence = 0
		jm.mu.Unlock()
		_ = jm.fleet.Release(jb.ID, token)
		jm.mu.Lock()
		return
	}
	select {
	case jm.queue <- rec:
	default:
		// Local queue full: hand the claim back; another pass or replica
		// will pick the job up.
		rec.Fence = 0
		jm.mu.Unlock()
		_ = jm.fleet.Release(jb.ID, token)
		jm.mu.Lock()
	}
}

// SetRetryPolicy bounds automatic retries of failed jobs: a job may run at
// most maxAttempts times in this process (0 or 1 disables retries), with
// exponential backoff starting at base (default 1s) capped at one minute.
func (jm *JobManager) SetRetryPolicy(maxAttempts int, base time.Duration) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.retryMax = maxAttempts
	jm.retryBase = base
}

// Crash simulates kill -9 for recovery tests: running jobs are torn down
// without recording any verdict (their journal records stay `running`),
// the journal is closed, and further submissions are rejected. A new
// manager journalled at the same path then recovers them as interrupted.
func (jm *JobManager) Crash() {
	jm.mu.Lock()
	jm.crashed = true
	jm.closed = true
	if jm.journal != nil {
		jm.journal.close()
		jm.journal = nil
	}
	jm.mu.Unlock()
	// In fleet mode a kill -9 also silences the heartbeat loop: held
	// leases expire unrenewed and survivors take the jobs over.
	jm.stopFleetLoop()
	jm.cancel()
	jm.wg.Wait()
}

// stopFleetLoop stops the claim/heartbeat loop (idempotent, no-op
// outside fleet mode).
func (jm *JobManager) stopFleetLoop() {
	if jm.fleet == nil {
		return
	}
	jm.fleetOnce.Do(func() { close(jm.fleetStop) })
	jm.fleetWG.Wait()
}

// Submit validates and enqueues a job, returning its initial snapshot.
// In fleet mode the job is enqueued to the shared store — whichever
// replica's claim loop wins the lease runs it — with an ID prefixed by
// this replica's identity so concurrent submissions across the fleet
// never collide.
func (jm *JobManager) Submit(spec JobSpec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return Job{}, ErrClosed
	}
	if jm.fleet != nil {
		jm.nextID++
		jb := Job{
			ID:        fmt.Sprintf("job-%s-%d", jm.fleet.Replica(), jm.nextID),
			Name:      spec.Name,
			Spec:      spec,
			State:     JobPending,
			Submitted: time.Now(),
		}
		payload, err := json.Marshal(jb)
		if err == nil {
			err = jm.fleet.Enqueue(jb.ID, payload)
		}
		if err != nil {
			jm.nextID--
			return Job{}, fmt.Errorf("server: enqueueing to fleet store: %w", err)
		}
		jm.kickClaim()
		return jb, nil
	}
	jm.nextID++
	rec := &jobRec{Job: Job{
		ID:        fmt.Sprintf("job-%d", jm.nextID),
		Name:      spec.Name,
		Spec:      spec,
		State:     JobPending,
		Submitted: time.Now(),
	}}
	select {
	case jm.queue <- rec:
	default:
		jm.nextID--
		return Job{}, ErrQueueFull
	}
	jm.jobs[rec.ID] = rec
	jm.order = append(jm.order, rec.ID)
	jm.logJournal(rec)
	return rec.Job, nil
}

// Get returns a snapshot of the job with the given id. In fleet mode a
// job not held by this replica is answered from the shared state record,
// so any replica can report status for any job.
func (jm *JobManager) Get(id string) (Job, bool) {
	jm.mu.Lock()
	rec, ok := jm.jobs[id]
	if ok {
		jb := rec.Job
		jm.mu.Unlock()
		return jb, true
	}
	fl := jm.fleet
	jm.mu.Unlock()
	if fl != nil {
		if st, err := fl.GetState(id); err == nil {
			return jobFromState(st), true
		}
	}
	return Job{}, false
}

// List returns snapshots of all jobs in submission order. In fleet mode
// jobs known only to the shared store (owned by other replicas) are
// appended after the local ones.
func (jm *JobManager) List() []Job {
	jm.mu.Lock()
	out := make([]Job, 0, len(jm.order))
	seen := make(map[string]bool, len(jm.order))
	for _, id := range jm.order {
		out = append(out, jm.jobs[id].Job)
		seen[id] = true
	}
	fl := jm.fleet
	jm.mu.Unlock()
	if fl != nil {
		if states, err := fl.States(); err == nil {
			for _, st := range states {
				if !seen[st.Job] {
					out = append(out, jobFromState(st))
				}
			}
		}
	}
	return out
}

// Cancel requests cancellation. A pending job is cancelled immediately; a
// running job has its context cancelled and transitions to cancelled once
// its sampler observes the signal (within one Wang-Landau sweep). The
// returned snapshot reflects the state at return time.
func (jm *JobManager) Cancel(id string) (Job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	rec, ok := jm.jobs[id]
	if !ok {
		if jm.fleet != nil {
			// Not ours (yet): drop a cancel marker in the shared store. The
			// owning replica observes it at its next heartbeat; an unclaimed
			// job is retired by whichever replica claims it next.
			st, err := jm.fleet.GetState(id)
			if err != nil {
				return Job{}, fmt.Errorf("server: no such job %q", id)
			}
			if st.Phase.Terminal() {
				return jobFromState(st), ErrJobFinished
			}
			if err := jm.fleet.Cancel(id); err != nil {
				return Job{}, err
			}
			return jobFromState(st), nil
		}
		return Job{}, fmt.Errorf("server: no such job %q", id)
	}
	switch rec.State {
	case JobPending:
		now := time.Now()
		rec.State = JobCancelled
		rec.Error = "cancelled before start"
		rec.Finished = &now
		rec.cancelRequested = true
		jm.persistLocked(rec, time.Time{})
		jm.releaseLeaseLocked(rec)
	case JobInterrupted:
		// Parked awaiting a retry or recovery pickup; leaving JobInterrupted
		// makes requeue/execute drop it.
		now := time.Now()
		rec.State = JobCancelled
		rec.Error = "cancelled while interrupted"
		rec.Finished = &now
		rec.cancelRequested = true
		if jm.fleet != nil && rec.Fence == 0 {
			// The lease was released at the interruption; mark the shared
			// record via the cancel path so no replica re-claims it.
			jm.mu.Unlock()
			err := jm.fleet.Cancel(id)
			jm.kickClaim()
			jm.mu.Lock()
			if err != nil {
				return rec.Job, err
			}
			return rec.Job, nil
		}
		jm.persistLocked(rec, time.Time{})
		jm.releaseLeaseLocked(rec)
	case JobRunning:
		rec.cancelRequested = true
		rec.cancelJob()
	default:
		return rec.Job, ErrJobFinished
	}
	return rec.Job, nil
}

// QueueDepth counts jobs waiting to start.
func (jm *JobManager) QueueDepth() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	n := 0
	for _, rec := range jm.jobs {
		if rec.State == JobPending {
			n++
		}
	}
	return n
}

// Busy returns the number of workers currently executing a job.
func (jm *JobManager) Busy() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.busy
}

// Workers returns the pool size.
func (jm *JobManager) Workers() int { return jm.workers }

// CountByState returns the number of jobs in the given state.
func (jm *JobManager) CountByState(s JobState) int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	n := 0
	for _, rec := range jm.jobs {
		if rec.State == s {
			n++
		}
	}
	return n
}

// StopAdmitting rejects further submissions without disturbing queued or
// running jobs. The first step of a graceful drain.
func (jm *JobManager) StopAdmitting() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
}

// Drain stops admission and waits for queued and running jobs to finish.
// If ctx expires first, the remaining jobs are cancelled: running
// samplers observe the cancellation within one sweep and persist partial
// results through their normal cancellation path. Jobs parked as
// interrupted (awaiting a retry backoff) are not waited on — their
// requeue is a no-op once admission stops, and a journalled server
// recovers them on the next start. Workers have exited when Drain
// returns.
func (jm *JobManager) Drain(ctx context.Context) {
	jm.StopAdmitting()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for !jm.idle() {
		select {
		case <-ctx.Done():
			jm.cancel()
			jm.wg.Wait()
			return
		case <-tick.C:
		}
	}
	jm.cancel()
	jm.wg.Wait()
}

// idle reports that no job is queued or executing. Pending→running and
// running→terminal transitions each happen under jm.mu together with the
// busy count, so there is no window where a job is in flight but counted
// by neither term.
func (jm *JobManager) idle() bool {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.busy > 0 {
		return false
	}
	for _, rec := range jm.jobs {
		if rec.State == JobPending {
			return false
		}
	}
	return true
}

// Close cancels every running job, rejects further submissions, and waits
// for the workers to exit. In fleet mode, leases still held for queued
// jobs are released so other replicas can claim them without waiting out
// the TTL (running jobs release theirs through their interruption path).
func (jm *JobManager) Close() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
	jm.stopFleetLoop()
	jm.cancel()
	jm.wg.Wait()
	if jm.fleet != nil {
		jm.mu.Lock()
		for _, rec := range jm.jobs {
			if rec.Fence != 0 && rec.State != JobRunning {
				jm.releaseLeaseLocked(rec)
			}
		}
		jm.mu.Unlock()
	}
}
