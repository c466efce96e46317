// Package infer shares one copy of the DL proposal model's weights among
// the concurrent MC walkers of a run.
//
// Its only remaining user outside tests is the benchmark harness (bench/),
// whose dl_batch_n16 workload samples through an Engine. The facade gives
// every DL walker a vae.Model.ShareWeights replica directly
// (deepthermo.System.WalkerModel), which is what a Client wraps, so the
// package goes when the harness stops building its engine.
//
// Motivation. Each walker's DL proposal needs a model whose inference
// scratch it owns. The per-walker route, vae.Model.CloneWeights, gives
// every walker a private weight copy as well, so W walkers stream W copies
// of the same weights through the cache. The engine keeps ONE
// weight copy and hands each walker a Client: a vae.Model.ShareWeights
// replica that reads the engine model's weights in place and writes only
// buffers of its own.
//
// Protocol. A Client runs its walker's forwards directly on the caller's
// goroutine, with no lock and no hand-off: REWL walkers sweep independently
// between exchanges, and nothing here makes one wait for another. Distinct
// clients may run concurrently; one client belongs to one goroutine.
//
// Identity. A client computes exactly the engine model's forwards, bit for
// bit — the same code over the same numbers — so a run through clients is
// bit-identical to a run on per-walker weight clones. The batch golden
// traces in internal/mc and the REWL parity tests pin this end to end.
// DESIGN.md ("Batched inference") records why a client does not coalesce
// its forwards with other walkers'.
package infer

import (
	"sync"
	"sync/atomic"

	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/vae"
)

// Stats counts engine activity. Read with Engine.Stats, during or after a
// run. Each forward a client runs counts as a batch of one.
type Stats struct {
	Batches     int64 // forwards run; equal to Requests
	Requests    int64 // client calls served
	Encodes     int64 // encode rows among them (incl. fused)
	Decodes     int64 // decode rows among them (incl. fused)
	Fused       int64 // fused walk-step requests among them
	MaxBatch    int   // 1 once anything ran
	PassThrough int64 // always 0; kept for the callers that report it
}

// Engine owns the one weight copy its clients read. Construct with
// NewEngine, then hand each walker a NewClient.
type Engine struct {
	model *vae.Model

	mu      sync.Mutex
	clients []*Client
}

// NewEngine shares model's weights among the clients it hands out. The
// engine owns the model: nothing may write its weights while a client is
// running a forward.
func NewEngine(model *vae.Model) *Engine { return &Engine{model: model} }

// Model returns the engine-owned model. It exists for weight updates
// between runs (retrains): every client sees them at its next call, after
// which each client's proposal cache must be invalidated.
func (e *Engine) Model() *vae.Model { return e.model }

// Stats sums the counters of every client handed out so far. It is safe to
// call while clients run, and exact once they have returned.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st Stats
	for _, c := range e.clients {
		enc, dec, fused := c.encodes.Load(), c.decodes.Load(), c.fused.Load()
		st.Requests += enc + dec + fused
		st.Encodes += enc + fused
		st.Decodes += dec + fused
		st.Fused += fused
	}
	st.Batches = st.Requests
	if st.Requests > 0 {
		st.MaxBatch = 1
	}
	return st
}

// Client is one walker's handle on the engine: a replica of the engine
// model plus the walker's own counters. It implements mc.Inferencer. A
// Client is owned by a single goroutine; distinct
// Clients may be used concurrently.
type Client struct {
	model *vae.Model // ShareWeights replica of the engine model

	// Calls served, by kind, counted after the forward returns. Written
	// on every DL step, hence the pad: no other walker's line is touched.
	encodes, decodes, fused atomic.Int64

	_ [cacheline.Size - 32]byte
}

// NewClient returns a new handle for one walker.
func (e *Engine) NewClient() *Client {
	c := &Client{model: e.model.ShareWeights()}
	e.mu.Lock()
	e.clients = append(e.clients, c)
	e.mu.Unlock()
	return c
}

// Config returns the model hyperparameters.
func (c *Client) Config() vae.Config { return c.model.Config() }

// EncodeInto is vae.Model.EncodeInto on the client's replica.
func (c *Client) EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64) {
	mu, logvar = c.model.EncodeInto(cfg, cond, mu, logvar)
	c.encodes.Add(1)
	return mu, logvar
}

// DecodeProbsInto is vae.Model.DecodeProbsInto on the client's replica.
func (c *Client) DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64 {
	dst = c.model.DecodeProbsInto(z, cond, dst)
	c.decodes.Add(1)
	return dst
}

// EncodeSampleDecode is vae.Model's fused walk-posterior forward on the
// client's replica, bit-identical to an EncodeInto + SampleLatent +
// DecodeProbsInto sequence.
func (c *Client) EncodeSampleDecode(cfg lattice.Config, cond float64, eps, mu, lv, z []float64, probs [][]float64) {
	c.model.EncodeSampleDecode(cfg, cond, eps, mu, lv, z, probs)
	c.fused.Add(1)
}
