// Package transport is the message-passing layer with MPI semantics that
// the parallel code — the REWL driver (package rewl), the DDP trainer
// (package train) — is written against, so it runs unchanged over
// goroutine channels in one process or over TCP sockets spanning OS
// processes and machines.
//
// The operations are MPI's: point-to-point sends, barriers, binomial-tree
// broadcast, ring allreduce/allgather, each in a fault-aware Ctx flavor
// (cancellation, timeouts, failed-peer observation, deterministic fault
// injection) and a blocking flavor for healthy-world code. A backend
// implements only the point-to-point operations and the barrier: the chan
// backend (chan.go) over per-pair buffered channels between goroutines,
// the TCP backend (tcp.go, rendezvous.go, wire.go) over length-prefixed
// frames between processes that met through a rendezvous coordinator.
// Everything else is written once, in collectives.go, so a collective is
// bit-identical on either backend. Chaos plans (package chaos) plug into
// both through FaultInjector, so a fault schedule exercised in-process
// replays over real sockets: a crash closes the rank's connections
// mid-protocol, a dropped send is a frame never written, a delayed send is
// a stalled socket write.
package transport

import (
	"context"
	"errors"
	"time"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// apply reduces src into dst elementwise, in index order.
func (op Op) apply(dst, src []float64) {
	switch op {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	}
}

// Errors reported by the Ctx operations of both backends, so callers'
// errors.Is checks are backend-independent.
var (
	// ErrRankFailed is returned by a rank's own operations after it has
	// permanently failed (fault-injected crash, FailRank, or Kill).
	ErrRankFailed = errors.New("transport: rank permanently failed")
	// ErrPeerFailed is returned when the operation's peer rank has
	// permanently failed and no buffered message remains.
	ErrPeerFailed = errors.New("transport: peer rank failed")
	// ErrTimeout is returned when an operation exceeds the endpoint timeout.
	ErrTimeout = errors.New("transport: operation timed out")
)

// FaultInjector supplies per-operation fault verdicts. Implementations
// must be safe for concurrent use by all ranks; chaos.Plan satisfies that
// (it is immutable after construction). Step numbers are the rank's
// cumulative operation count (sends + recvs).
type FaultInjector interface {
	// ShouldCrash reports whether rank must fail permanently at step.
	ShouldCrash(rank int, step int64) bool
	// SendFault returns the drop/delay verdict for rank's seq-th send.
	SendFault(rank int, seq int64) (drop bool, delay time.Duration)
}

// Endpoint is one rank's communicator. Like an MPI rank, an Endpoint
// belongs to one thread of execution and is not safe for concurrent use by
// multiple goroutines.
//
// The blocking operations assume a healthy world and panic if the
// underlying operation fails (a dead peer, a closed socket), so
// distributed code should use the Ctx variants, which return errors.
// SetTimeout and SetFaultInjector must be called before the endpoint
// starts communicating.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the world size.
	Size() int

	// Blocking operations (healthy-world BSP code).
	Send(dst int, data []float64)
	Recv(src int) []float64
	Barrier()
	Broadcast(root int, buf []float64)
	Allreduce(buf []float64, op Op)
	Allgather(contrib, dst []float64)

	// Fault-aware operations: cancellation, timeout, failed-peer
	// observation, fault injection.
	SendCtx(ctx context.Context, dst int, data []float64) error
	RecvCtx(ctx context.Context, src int) ([]float64, error)
	BarrierCtx(ctx context.Context) error
	BroadcastCtx(ctx context.Context, root int, buf []float64) error
	AllreduceCtx(ctx context.Context, buf []float64, op Op) error
	AllgatherCtx(ctx context.Context, contrib, dst []float64) error

	// SetTimeout bounds every Ctx operation (0 = caller's context alone).
	SetTimeout(d time.Duration)
	// SetFaultInjector installs a deterministic fault plan for this rank's
	// operations (nil disables injection).
	SetFaultInjector(fi FaultInjector)

	// BytesSent reports cumulative payload bytes, for communication-volume
	// assertions: the chan backend reports the world-wide total (shared
	// process memory), the TCP backend this process's endpoint alone, so
	// the world total is the sum over endpoints.
	BytesSent() int64

	// PeerFailed reports whether rank r is known to have permanently
	// failed (crashed, disconnected, or fault-injected dead).
	PeerFailed(r int) bool

	// Close releases the endpoint. On the TCP backend it announces a clean
	// departure to the coordinator and closes the mesh connections; on the
	// chan backend it is a no-op.
	Close() error
}

// Rejoinable is implemented by endpoints whose world can heal: a failed
// rank may be replaced by a new worker (the coordinator re-issues the
// rank, survivors re-establish connectivity) and communication with the
// re-issued rank resumes. Elastic drivers type-assert for it; a backend
// that does not implement Rejoinable has permanent failures only.
type Rejoinable interface {
	// AwaitRejoin blocks until failed rank r has been replaced by a new
	// incarnation, or ctx expires. Returns nil immediately if r is live.
	AwaitRejoin(ctx context.Context, r int) error
}
