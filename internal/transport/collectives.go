package transport

// The half of an Endpoint both backends share. A backend implements
// point-to-point SendCtx/RecvCtx and BarrierCtx; core, embedded in each
// backend's endpoint, builds everything else on top of them exactly once:
// the binomial-tree broadcast, the ring reduce-scatter/allgather
// allreduce, the ring allgather, the blocking healthy-world wrappers, the
// per-operation fault checks and timeouts, and the rejoin wait. So a
// collective runs the same schedule — same messages, same arithmetic in
// the same order — and computes bit-identical results on either backend.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// opConfig is what SetTimeout and SetFaultInjector set: per endpoint on
// the TCP backend, per world on the chan backend.
type opConfig struct {
	timeout time.Duration
	inject  FaultInjector
}

// link is what a backend supplies to core: the point-to-point operations,
// the barrier, and its own way of recording and enacting this rank's death.
type link interface {
	SendCtx(ctx context.Context, dst int, data []float64) error
	RecvCtx(ctx context.Context, src int) ([]float64, error)
	BarrierCtx(ctx context.Context) error
	PeerFailed(r int) bool
	selfFailed() bool
	crash()
}

// core is one rank's shared state and operations; see the file comment.
type core struct {
	link             link // the endpoint embedding this core
	rank, size       int
	cfg              *opConfig
	sent             *atomic.Int64 // payload bytes: the world's on chan, this endpoint's on TCP
	sendSeq, recvSeq int64
}

// Rank returns this endpoint's rank.
func (c *core) Rank() int { return c.rank }

// Size returns the world size.
func (c *core) Size() int { return c.size }

// BytesSent returns the cumulative payload bytes sent: world-wide on the
// chan backend, this endpoint's own on TCP (see Endpoint).
func (c *core) BytesSent() int64 { return c.sent.Load() }

// SetTimeout bounds every Ctx operation (0 = caller's context alone).
// Call before the endpoint starts communicating; on the chan backend the
// setting is world-wide, so call it from one goroutine.
func (c *core) SetTimeout(d time.Duration) { c.cfg.timeout = d }

// SetFaultInjector installs a deterministic fault plan. Call before the
// endpoint starts communicating; on the chan backend the plan is
// world-wide, so call it from one goroutine.
func (c *core) SetFaultInjector(fi FaultInjector) { c.cfg.inject = fi }

// opCtx applies the endpoint timeout to ctx.
func (c *core) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.timeout > 0 {
		return context.WithTimeout(ctx, c.cfg.timeout)
	}
	return ctx, func() {}
}

// AwaitRejoin blocks until failed peer r has been replaced by a new
// incarnation (ChanWorld.Revive, or a worker the TCP coordinator
// re-admitted and this endpoint has dialled), or ctx expires. Returns nil
// immediately if r is live.
func (c *core) AwaitRejoin(ctx context.Context, r int) error {
	if r < 0 || r >= c.size || r == c.rank {
		return fmt.Errorf("transport: await rejoin of rank %d outside world of %d", r, c.size)
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for c.link.PeerFailed(r) {
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// mapCtxErr converts a cancellation caused by the endpoint timeout into
// ErrTimeout; cancellation of the caller's own context passes through.
func mapCtxErr(outer context.Context, op string, peer int) error {
	if outer.Err() != nil {
		return outer.Err()
	}
	return fmt.Errorf("%w: %s involving rank %d", ErrTimeout, op, peer)
}

// checkPeer rejects a peer rank outside the world.
func (c *core) checkPeer(op string, r int) error {
	if r < 0 || r >= c.size {
		return fmt.Errorf("transport: %s rank %d outside world of %d", op, r, c.size)
	}
	return nil
}

// checkFaults is the step every operation takes first: it reports
// self-failure, then enacts a crash the fault plan schedules at this
// rank's cumulative operation count.
func (c *core) checkFaults() error {
	if c.link.selfFailed() {
		return fmt.Errorf("%w: rank %d", ErrRankFailed, c.rank)
	}
	if c.cfg.inject != nil && c.cfg.inject.ShouldCrash(c.rank, c.sendSeq+c.recvSeq) {
		c.link.crash()
		return fmt.Errorf("%w: rank %d (injected crash)", ErrRankFailed, c.rank)
	}
	return nil
}

// sendFault consumes one send sequence number and applies the fault plan's
// verdict for it: an injected delay sleeps on the operation context, so the
// endpoint timeout bounds it; drop reports that the send is lost in the
// network, its payload counted as sent.
func (c *core) sendFault(ctx, opCtx context.Context, dst int, data []float64) (drop bool, err error) {
	seq := c.sendSeq
	c.sendSeq++
	if c.cfg.inject == nil {
		return false, nil
	}
	drop, delay := c.cfg.inject.SendFault(c.rank, seq)
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-opCtx.Done():
			return false, mapCtxErr(ctx, "send", dst)
		}
	}
	if drop {
		c.sent.Add(int64(8 * len(data)))
	}
	return drop, nil
}

// BroadcastCtx copies root's buf into every rank's buf (len must match on
// all ranks). A binomial tree gives the O(log n) depth of real MPI_Bcast.
func (c *core) BroadcastCtx(ctx context.Context, root int, buf []float64) error {
	n, me := c.size, c.rank
	// Re-index so the root is virtual rank 0.
	vr := (me - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vr < mask {
			if partner := vr | mask; partner < n {
				if err := c.link.SendCtx(ctx, (partner+root)%n, buf); err != nil {
					return err
				}
			}
		} else if vr < mask<<1 {
			msg, err := c.link.RecvCtx(ctx, (vr-mask+root)%n)
			if err != nil {
				return err
			}
			copy(buf, msg)
		}
	}
	return nil
}

// AllreduceCtx reduces buf elementwise across all ranks with op and leaves
// the result in every rank's buf. The schedule is the bandwidth-optimal
// ring (reduce-scatter, then allgather) that NCCL and RCCL use for large
// tensors, so per-rank traffic is 2·(n−1)/n of the buffer whatever the
// rank count. A dropped send inside the ring poisons the result for every
// rank — the all-or-nothing failure mode of a real ring allreduce, which
// is why the REWL layer treats a failed collective as fatal for the round.
func (c *core) AllreduceCtx(ctx context.Context, buf []float64, op Op) error {
	n, me := c.size, c.rank
	if n == 1 {
		return nil
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	// Chunk k covers [off[k], off[k+1]).
	off := make([]int, n+1)
	for k := 0; k <= n; k++ {
		off[k] = k * len(buf) / n
	}
	chunk := func(k int) []float64 {
		k = ((k % n) + n) % n
		return buf[off[k]:off[k+1]]
	}
	// Reduce-scatter: after step s, chunk (me−s−1) holds partial sums of
	// s+2 ranks; after n−1 steps chunk (me+1) is fully reduced.
	for s := 0; s < n-1; s++ {
		if err := c.link.SendCtx(ctx, right, chunk(me-s)); err != nil {
			return err
		}
		in, err := c.link.RecvCtx(ctx, left)
		if err != nil {
			return err
		}
		op.apply(chunk(me-s-1), in)
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		if err := c.link.SendCtx(ctx, right, chunk(me+1-s)); err != nil {
			return err
		}
		in, err := c.link.RecvCtx(ctx, left)
		if err != nil {
			return err
		}
		copy(chunk(me-s), in)
	}
	return nil
}

// AllgatherCtx concatenates each rank's contribution into dst, ordered by
// rank, around a ring. len(dst) must equal len(contrib)·Size, and contrib
// must be the same length on every rank.
func (c *core) AllgatherCtx(ctx context.Context, contrib, dst []float64) error {
	n, me, m := c.size, c.rank, len(contrib)
	if len(dst) != m*n {
		return fmt.Errorf("transport: Allgather dst %d != contrib %d × %d ranks", len(dst), m, n)
	}
	copy(dst[me*m:], contrib)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	cur := me
	for s := 0; s < n-1; s++ {
		if err := c.link.SendCtx(ctx, right, dst[cur*m:(cur+1)*m]); err != nil {
			return err
		}
		cur = (cur - 1 + n) % n
		in, err := c.link.RecvCtx(ctx, left)
		if err != nil {
			return err
		}
		copy(dst[cur*m:(cur+1)*m], in)
	}
	return nil
}

// The blocking operations run their Ctx variant without a deadline and
// panic on failure: they are for healthy-world code only.

// must panics with a failed blocking operation's error.
func must(op string, err error) {
	if err != nil {
		panic(fmt.Sprintf("transport: blocking %s failed (use %sCtx): %v", op, op, err))
	}
}

// Send delivers a copy of data to dst.
func (c *core) Send(dst int, data []float64) {
	must("Send", c.link.SendCtx(context.Background(), dst, data))
}

// Recv returns the next message from src.
func (c *core) Recv(src int) []float64 {
	msg, err := c.link.RecvCtx(context.Background(), src)
	must("Recv", err)
	return msg
}

// Barrier blocks until every rank has entered it.
func (c *core) Barrier() { must("Barrier", c.link.BarrierCtx(context.Background())) }

// Broadcast copies root's buf into every rank's buf.
func (c *core) Broadcast(root int, buf []float64) {
	must("Broadcast", c.BroadcastCtx(context.Background(), root, buf))
}

// Allreduce reduces buf elementwise across all ranks with op.
func (c *core) Allreduce(buf []float64, op Op) {
	must("Allreduce", c.AllreduceCtx(context.Background(), buf, op))
}

// Allgather concatenates each rank's contribution into dst, by rank.
func (c *core) Allgather(contrib, dst []float64) {
	must("Allgather", c.AllgatherCtx(context.Background(), contrib, dst))
}
