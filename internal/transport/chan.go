package transport

// The chan backend: an in-process world of goroutine ranks. Each ordered
// pair of ranks has a buffered mailbox channel carrying private copies of
// the payloads, so per-pair messages are FIFO as on a TCP connection. Each
// rank has a fail channel, closed when its incarnation dies, that wakes
// any operation blocked on it. In the original DeepThermo each rank is one
// GPU driven by an MPI process; here each rank is a goroutine, but who
// talks to whom, how many messages and how many bytes are identical to a
// TCP world of the same size.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// mailboxDepth is how many messages a sender may queue to one peer before
// SendCtx blocks; the deterministic BSP protocols here never need more.
const mailboxDepth = 4

// ChanWorld is an in-process world of goroutine ranks. Configure timeouts
// and fault plans (on the world or on any endpoint, equivalently) before
// the ranks start communicating.
type ChanWorld struct {
	size      int
	ch        [][]chan []float64 // ch[dst][src]
	bar       *ctxBarrier
	cfg       opConfig
	bytesSent atomic.Int64

	// A failure flag flips to true at most once per incarnation; Revive
	// resets it and replaces the rank's fail channel, so failCh entries
	// are read through failChOf under fmu.
	failed []atomic.Bool
	fmu    sync.RWMutex
	failCh []chan struct{} // closed when the rank's incarnation fails
}

// NewChanWorld creates an in-process world with n ranks.
func NewChanWorld(n int) *ChanWorld {
	if n < 1 {
		panic("transport: world size must be positive")
	}
	cw := &ChanWorld{
		size:   n,
		ch:     make([][]chan []float64, n),
		bar:    &ctxBarrier{n: n, release: make(chan struct{})},
		failed: make([]atomic.Bool, n),
		failCh: make([]chan struct{}, n),
	}
	for d := range cw.ch {
		cw.failCh[d] = make(chan struct{})
		cw.ch[d] = make([]chan []float64, n)
		for s := range cw.ch[d] {
			cw.ch[d][s] = make(chan []float64, mailboxDepth)
		}
	}
	return cw
}

// Size returns the number of ranks.
func (cw *ChanWorld) Size() int { return cw.size }

// BytesSent returns the world-wide cumulative payload bytes.
func (cw *ChanWorld) BytesSent() int64 { return cw.bytesSent.Load() }

// SetFaultInjector installs a fault plan for all ranks. Call before the
// ranks start communicating.
func (cw *ChanWorld) SetFaultInjector(fi FaultInjector) { cw.cfg.inject = fi }

// SetTimeout bounds every Ctx operation of every rank. Call before the
// ranks start communicating.
func (cw *ChanWorld) SetTimeout(d time.Duration) { cw.cfg.timeout = d }

// FailRank marks rank r failed: its own operations return ErrRankFailed
// and peers blocked on it observe ErrPeerFailed. Failing is idempotent
// and, like a dead MPI process, permanent unless Revive replaces the rank.
func (cw *ChanWorld) FailRank(r int) {
	if cw.failed[r].CompareAndSwap(false, true) {
		close(cw.failChOf(r))
	}
}

// Revive restores failed rank r for a replacement goroutine: the failure
// flag clears, the rank gets a fresh fail channel, and messages buffered
// to or from the dead incarnation are discarded, so Endpoint(r) hands the
// replacement clean mailboxes. The in-process analogue of a worker
// rejoining a TCP world. Call only once the dead incarnation's goroutine
// has stopped communicating.
func (cw *ChanWorld) Revive(r int) {
	if !cw.failed[r].Load() {
		return
	}
	cw.fmu.Lock()
	cw.failCh[r] = make(chan struct{})
	cw.fmu.Unlock()
	for o := 0; o < cw.size; o++ {
		drain(cw.ch[r][o]) // inbound to the dead incarnation
		drain(cw.ch[o][r]) // outbound from it, not yet consumed
	}
	cw.failed[r].Store(false)
}

func drain(ch chan []float64) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// failChOf returns rank r's current fail channel.
func (cw *ChanWorld) failChOf(r int) chan struct{} {
	cw.fmu.RLock()
	defer cw.fmu.RUnlock()
	return cw.failCh[r]
}

// Endpoint returns a communicator for rank r. Fault injection counts an
// endpoint's own operations, so obtain one Endpoint per rank and reuse it.
func (cw *ChanWorld) Endpoint(r int) Endpoint {
	if r < 0 || r >= cw.size {
		panic(fmt.Sprintf("transport: rank %d outside world of %d", r, cw.size))
	}
	e := &chanEndpoint{w: cw}
	e.core = core{link: e, rank: r, size: cw.size, cfg: &cw.cfg, sent: &cw.bytesSent}
	return e
}

// chanEndpoint is one rank of a ChanWorld.
type chanEndpoint struct {
	core
	w *ChanWorld
}

func (e *chanEndpoint) selfFailed() bool { return e.w.failed[e.rank].Load() }
func (e *chanEndpoint) crash()           { e.w.FailRank(e.rank) }

// SendCtx delivers a copy of data to dst or returns an error. A
// fault-injected dropped send returns nil (the loss is silent, like a lost
// packet); a send to a failed rank returns ErrPeerFailed instead of
// blocking.
func (e *chanEndpoint) SendCtx(ctx context.Context, dst int, data []float64) error {
	if err := e.checkPeer("send to", dst); err != nil {
		return err
	}
	if err := e.checkFaults(); err != nil {
		return err
	}
	opCtx, cancel := e.opCtx(ctx)
	defer cancel()
	drop, err := e.sendFault(ctx, opCtx, dst, data)
	if err != nil || drop {
		return err
	}
	w := e.w
	if w.failed[dst].Load() {
		return fmt.Errorf("%w: send to rank %d", ErrPeerFailed, dst)
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	select {
	case w.ch[dst][e.rank] <- cp:
		e.sent.Add(int64(8 * len(data)))
		return nil
	case <-w.failChOf(dst):
		return fmt.Errorf("%w: send to rank %d", ErrPeerFailed, dst)
	case <-w.failChOf(e.rank):
		return fmt.Errorf("%w: rank %d", ErrRankFailed, e.rank)
	case <-opCtx.Done():
		return mapCtxErr(ctx, "send", dst)
	}
}

// RecvCtx returns the next message from src, or ErrPeerFailed once src
// has failed and the messages it sent before failing are drained.
func (e *chanEndpoint) RecvCtx(ctx context.Context, src int) ([]float64, error) {
	if err := e.checkPeer("recv from", src); err != nil {
		return nil, err
	}
	if err := e.checkFaults(); err != nil {
		return nil, err
	}
	e.recvSeq++
	w := e.w
	// Drain messages sent before a peer failure first.
	select {
	case msg := <-w.ch[e.rank][src]:
		return msg, nil
	default:
	}
	opCtx, cancel := e.opCtx(ctx)
	defer cancel()
	select {
	case msg := <-w.ch[e.rank][src]:
		return msg, nil
	case <-w.failChOf(src):
		// Both cases may be ready at once, and select picks at random:
		// whatever src sent before failing is in the buffer by now.
		select {
		case msg := <-w.ch[e.rank][src]:
			return msg, nil
		default:
		}
		return nil, fmt.Errorf("%w: recv from rank %d", ErrPeerFailed, src)
	case <-w.failChOf(e.rank):
		return nil, fmt.Errorf("%w: rank %d", ErrRankFailed, e.rank)
	case <-opCtx.Done():
		return nil, mapCtxErr(ctx, "recv", src)
	}
}

// BarrierCtx blocks until every rank enters it, the context is cancelled,
// or the timeout fires. A rank that aborts withdraws from the barrier
// generation, so the survivors' own timeouts — not a permanent deadlock —
// decide the outcome, as a real MPI job detects a dead rank at its next
// collective.
func (e *chanEndpoint) BarrierCtx(ctx context.Context) error {
	if err := e.checkFaults(); err != nil {
		return err
	}
	opCtx, cancel := e.opCtx(ctx)
	defer cancel()
	if err := e.w.bar.wait(opCtx); err != nil {
		return mapCtxErr(ctx, "barrier", -1)
	}
	return nil
}

func (e *chanEndpoint) PeerFailed(r int) bool { return e.w.failed[r].Load() }

func (e *chanEndpoint) Close() error { return nil }

var _ Rejoinable = (*chanEndpoint)(nil)

// ctxBarrier is a generation-based barrier whose waiters can abort on
// context cancellation; an aborted waiter withdraws its arrival so the
// generation's count stays consistent for the survivors.
type ctxBarrier struct {
	mu      sync.Mutex
	n       int
	count   int
	release chan struct{}
}

func (b *ctxBarrier) wait(ctx context.Context) error {
	b.mu.Lock()
	b.count++
	if b.count == b.n {
		b.count = 0
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return nil
	}
	ch := b.release
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		defer b.mu.Unlock()
		select {
		case <-ch: // released while aborting: the barrier completed
			return nil
		default:
		}
		b.count--
		return ctx.Err()
	}
}
