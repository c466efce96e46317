package tensor

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The fan-out: one persistent helper goroutine per process works on a
// large kernel call alongside its caller. A call is cut by output — batch
// rows for MatMul and MatMulTransB, dst rows for MatMulTransA, elements
// for Tanh and Adam — into chunks of about chunkWork, which the caller and
// the helper take in turn from a shared counter. Every output element is
// computed by one goroutine with its serial operation sequence, so the
// split is invisible in the bits. A call fans out only when it has at
// least two chunks, two Ps or more and fanOutWork of work.
//
// The hand-off allocates nothing: the caller writes a job descriptor
// (the op and its operands) into the helper's one slot, not a closure.
// It never waits on a second core the host does not give it: the caller
// takes chunks until none are left, so it waits at most for the chunk the
// helper is running, and not at all if the helper never woke up; a helper
// on a slow core simply takes fewer chunks. And it never oversubscribes:
// while one caller holds the slot, every other call (a second DDP rank,
// an inference client) runs serially. The helper starts at the first
// fan-out, spins for helperSpin after each job so the next call of a
// training step finds it awake, and then parks on a channel, costing
// nothing while idle.

// fanOutWork is the work, in multiply-adds, from which a call fans out:
// about 3 µs of a batch matmul. Below it the hand-off costs about what
// the helper's share saves (DESIGN.md, "Serial gating", has the
// measurements). Batch-1 calls never fan out, whatever their work: a
// matmul needs two chunks of rows, at least five, and Tanh two rows.
const fanOutWork = 1 << 15

// chunkWork is the work of one chunk, about 1.6 µs: long enough that the
// counter's cache-line transfer, once a chunk, is noise, and short enough
// that the caller never waits long for the helper's last chunk. A chunk
// is a whole number of four outputs (rows or elements), which the
// assembler bodies take in groups of four.
const chunkWork = fanOutWork / 2

// tanhWork and adamWork are the cost of one element of Tanh and of Adam in
// multiply-adds of a batch matmul, as the AVX2 bodies run them: a tanh
// takes about 4.8 ns, an Adam element 3.1 ns, a multiply-add 0.1 ns.
const (
	tanhWork = 48
	adamWork = 32
)

// helperSpin is how long the helper keeps looking for work after a job
// before it parks. It bridges the serial stretches of a training step
// (the loss, the gradient clip, the next batch's one-hot rows), which last
// tens of microseconds, not the gap between two fits.
const helperSpin = 200 * time.Microsecond

// The helper slot's states. A caller moves it idle → filling, writes the
// job, and posts it; the helper moves posted → claimed → done; the caller
// either sees done or moves posted → filling itself (a reclaim), and
// returns the slot to idle.
const (
	slotIdle uint32 = iota
	slotFilling
	slotPosted
	slotClaimed
	slotDone
)

type fanOp uint8

const (
	fanMatMul fanOp = iota
	fanMatMulTransB
	fanMatMulTransA
	fanTanh
	fanAdam
)

// job is one fan-out's descriptor: the op, its operands, and its n
// outputs in chunks of chunk, the next of which starts at next.
type job struct {
	op        fanOp
	dst, a, b *Matrix
	y, x      []float64
	ps        []AdamParam
	h         adamHyper
	n, chunk  int
	next      atomic.Int64
}

// run computes outputs [lo, hi) of j.
func (j *job) run(lo, hi int) {
	switch j.op {
	case fanMatMul:
		matMulRange(j.dst, j.a, j.b, lo, hi)
	case fanMatMulTransB:
		matMulTransBRange(j.dst, j.a, j.b, lo, hi)
	case fanMatMulTransA:
		matMulTransARange(j.dst, j.a, j.b, lo, hi)
	case fanTanh:
		tanh(j.y[lo:hi], j.x[lo:hi])
	case fanAdam:
		adamRange(j.ps, &j.h, lo, hi)
	}
}

var helper struct {
	state    atomic.Uint32
	started  atomic.Bool
	sleeping atomic.Bool
	wake     chan struct{}
	job      job
}

func init() { helper.wake = make(chan struct{}, 1) }

// chunkOf is the chunk size of a call of n outputs and work multiply-adds:
// about chunkWork, rounded up to a multiple of four.
func chunkOf(n, work int) int {
	return max(4, (chunkWork*n/max(work, 1)+3)&^3)
}

// fans reports whether a call of n outputs (rows, or elements) and work
// multiply-adds should fan out: work at least fanOutWork, two chunks or
// more, and two Ps or more.
func fans(n, work int) bool {
	return work >= fanOutWork && n > chunkOf(n, work) && runtime.GOMAXPROCS(0) >= 2
}

// claim returns the helper's job slot, held by the caller and set for n
// outputs, when the call fans and the helper is free; nil otherwise, and
// the caller runs serially.
func claim(n, work int) *job {
	if !fans(n, work) || !helper.state.CompareAndSwap(slotIdle, slotFilling) {
		return nil
	}
	if !helper.started.Load() {
		helper.started.Store(true)
		go helperLoop()
	}
	j := &helper.job
	j.n, j.chunk = n, chunkOf(n, work)
	j.next.Store(0)
	return j
}

// split runs the claimed job j: it posts it to the helper, takes chunks
// until none is left, and then, if the helper joined, waits for the
// helper's last chunk. No chunk may panic — every op checks its operands
// before it claims the slot — because a panic on the helper ends the
// process, and one on the caller leaves the slot held, so that every
// later call runs serially.
func (j *job) split() {
	helper.state.Store(slotPosted)
	if helper.sleeping.Swap(false) {
		select {
		case helper.wake <- struct{}{}:
		default:
		}
	}
	j.runChunks()
	if !helper.state.CompareAndSwap(slotPosted, slotFilling) {
		// The helper is on its last chunk. Spin for it, then yield the P
		// in case the helper is waiting for one.
		for i := 0; helper.state.Load() != slotDone; i++ {
			if i >= 1<<12 {
				runtime.Gosched()
			}
		}
	}
	*j = job{} // hold no operand past the call
	helper.state.Store(slotIdle)
}

// runChunks runs chunks of j until none is left.
func (j *job) runChunks() {
	for {
		hi := int(j.next.Add(int64(j.chunk)))
		lo := hi - j.chunk
		if lo >= j.n {
			return
		}
		j.run(lo, min(hi, j.n))
	}
}

// helperLoop is the helper goroutine: it takes chunks of each posted job,
// spinning for helperSpin after each job, and parks when none comes. The
// spin reads the slot's state, a load from the helper's own cache until a
// caller writes it, and only every spinCheck reads looks at the clock and
// lets another goroutine have the P: a Gosched takes the scheduler's
// lock, and one per read put 18 % of a fit's CPU profile in the scheduler.
func helperLoop() {
	const spinCheck = 256
	for {
		last := time.Now()
		for i := 1; ; i++ {
			if helper.state.Load() == slotPosted && helper.state.CompareAndSwap(slotPosted, slotClaimed) {
				helper.job.runChunks()
				helper.state.Store(slotDone)
				last, i = time.Now(), 0
				continue
			}
			if i%spinCheck == 0 {
				if time.Since(last) >= helperSpin {
					break
				}
				runtime.Gosched()
			}
		}
		// Park. A caller that posts after this store sees sleeping and
		// sends a token; one that posted before it is seen by the load.
		// A leftover token only costs one more pass of the spin loop.
		helper.sleeping.Store(true)
		if helper.state.Load() == slotPosted {
			helper.sleeping.Store(false)
			continue
		}
		<-helper.wake
	}
}
