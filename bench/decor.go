package main

import (
	"context"
	"math"
	"sync"
	"time"

	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
)

// sampleEvery is the stopwatch cadence of the proposal decorator: one
// Propose in sampleEvery is timed and the busy time is that sample scaled
// by the exact call count, so the decorator costs two clock reads per 64
// steps instead of per step.
const sampleEvery = 64

// timedProposal decorates one walker's mc.Proposal from outside the mc
// package: it counts every Propose and Accept and times a 1-in-64
// sample of Propose. It forwards mc.BatchParticipant so an engine-backed
// DL proposal keeps its place in the batching quorum. It draws nothing
// from the RNG and touches no configuration, so the decorated run's
// trajectory is bit-identical to the bare one.
type timedProposal struct {
	inner mc.Proposal
	batch mc.BatchParticipant // nil when inner does not batch

	calls, accepts int64
	timed, timedNs int64 // the 1-in-64 sample
}

func newTimedProposal(p mc.Proposal) *timedProposal {
	t := &timedProposal{inner: p}
	t.batch, _ = p.(mc.BatchParticipant)
	return t
}

func (t *timedProposal) Name() string { return t.inner.Name() }

func (t *timedProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	t.calls++
	if t.calls%sampleEvery != 0 {
		return t.inner.Propose(cfg, curE, src)
	}
	start := time.Now()
	dE, lq := t.inner.Propose(cfg, curE, src)
	t.timedNs += time.Since(start).Nanoseconds()
	t.timed++
	return dE, lq
}

func (t *timedProposal) Accept()                   { t.accepts++; t.inner.Accept() }
func (t *timedProposal) Reject(cfg lattice.Config) { t.inner.Reject(cfg) }

func (t *timedProposal) BeginBatch() {
	if t.batch != nil {
		t.batch.BeginBatch()
	}
}

func (t *timedProposal) EndBatch() {
	if t.batch != nil {
		t.batch.EndBatch()
	}
}

// proposalStats aggregates the decorators of one kind ("swap" or "dl")
// over every walker of a run.
type proposalStats struct {
	Calls, Accepts int64
	NsPerCall      float64 // mean of the timed sample
	BusyS          float64 // NsPerCall × Calls, summed over walkers
}

// proposalBook hands out decorators and sums them afterwards. The factory
// is called from several goroutines (one per rank in a distributed run,
// the coordinator for adaptive migrants), hence the lock; the decorators
// themselves are single-walker and unlocked.
type proposalBook struct {
	mu sync.Mutex
	by map[string][]*timedProposal
}

func (b *proposalBook) wrap(kind string, p mc.Proposal) mc.Proposal {
	t := newTimedProposal(p)
	b.mu.Lock()
	if b.by == nil {
		b.by = map[string][]*timedProposal{}
	}
	b.by[kind] = append(b.by[kind], t)
	b.mu.Unlock()
	return t
}

func (b *proposalBook) stats(kind string) proposalStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	clock := stopwatchNs()
	var st proposalStats
	var timed, timedNs int64
	for _, t := range b.by[kind] {
		st.Calls += t.calls
		st.Accepts += t.accepts
		timed += t.timed
		timedNs += t.timedNs
		if t.timed > 0 {
			perCall := math.Max(0, float64(t.timedNs)/float64(t.timed)-clock)
			st.BusyS += perCall * float64(t.calls) / 1e9
		}
	}
	if timed > 0 {
		st.NsPerCall = math.Max(0, float64(timedNs)/float64(timed)-clock)
	}
	return st
}

// stopwatchNs is what an empty timed region reads on this machine — two
// clock reads — so a 40 ns swap proposal is not reported as 200 ns.
func stopwatchNs() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		start := time.Now()
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(xs)
}

// timedEndpoint decorates one rank's transport.Endpoint: every send and
// every blocking receive/collective is counted, timed and (when traced)
// recorded as a span. Payloads pass through untouched.
type timedEndpoint struct {
	transport.Endpoint
	tr     *tracer
	run    string
	parent int

	msgs           int64
	sendNs, recvNs int64
}

func (e *timedEndpoint) timed(name string, acc *int64, fn func()) {
	id := e.tr.begin(name, e.run, e.parent)
	start := time.Now()
	fn()
	*acc += time.Since(start).Nanoseconds()
	e.tr.end(id)
}

func (e *timedEndpoint) Send(dst int, data []float64) {
	e.msgs++
	e.timed("transport.send", &e.sendNs, func() { e.Endpoint.Send(dst, data) })
}

func (e *timedEndpoint) Recv(src int) (out []float64) {
	e.timed("transport.recv", &e.recvNs, func() { out = e.Endpoint.Recv(src) })
	return out
}

func (e *timedEndpoint) Barrier() {
	e.timed("transport.barrier", &e.recvNs, e.Endpoint.Barrier)
}

func (e *timedEndpoint) Broadcast(root int, buf []float64) {
	e.timed("transport.broadcast", &e.recvNs, func() { e.Endpoint.Broadcast(root, buf) })
}

func (e *timedEndpoint) Allreduce(buf []float64, op transport.Op) {
	e.timed("transport.allreduce", &e.recvNs, func() { e.Endpoint.Allreduce(buf, op) })
}

func (e *timedEndpoint) Allgather(contrib, dst []float64) {
	e.timed("transport.allgather", &e.recvNs, func() { e.Endpoint.Allgather(contrib, dst) })
}

func (e *timedEndpoint) SendCtx(ctx context.Context, dst int, data []float64) (err error) {
	e.msgs++
	e.timed("transport.send", &e.sendNs, func() { err = e.Endpoint.SendCtx(ctx, dst, data) })
	return err
}

func (e *timedEndpoint) RecvCtx(ctx context.Context, src int) (out []float64, err error) {
	e.timed("transport.recv", &e.recvNs, func() { out, err = e.Endpoint.RecvCtx(ctx, src) })
	return out, err
}

func (e *timedEndpoint) BarrierCtx(ctx context.Context) (err error) {
	e.timed("transport.barrier", &e.recvNs, func() { err = e.Endpoint.BarrierCtx(ctx) })
	return err
}

func (e *timedEndpoint) BroadcastCtx(ctx context.Context, root int, buf []float64) (err error) {
	e.timed("transport.broadcast", &e.recvNs, func() { err = e.Endpoint.BroadcastCtx(ctx, root, buf) })
	return err
}

func (e *timedEndpoint) AllreduceCtx(ctx context.Context, buf []float64, op transport.Op) (err error) {
	e.timed("transport.allreduce", &e.recvNs, func() { err = e.Endpoint.AllreduceCtx(ctx, buf, op) })
	return err
}

func (e *timedEndpoint) AllgatherCtx(ctx context.Context, contrib, dst []float64) (err error) {
	e.timed("transport.allgather", &e.recvNs, func() { err = e.Endpoint.AllgatherCtx(ctx, contrib, dst) })
	return err
}
