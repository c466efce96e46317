package transport_test

// Regression tests of the in-process message-passing world, NewChanWorld,
// written against its exported API only: point-to-point delivery, the
// blocking and Ctx collectives, byte accounting, timeouts and injected
// crashes, each checked against its MPI-style contract. The conformance
// suite (conformance_test.go) runs the shared contracts on the TCP backend
// too.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/chaos"
	"deepthermo/internal/transport"
)

// spawn runs fn as every rank of a fresh world and waits for completion.
func spawn(n int, fn func(e transport.Endpoint)) *transport.ChanWorld {
	w := transport.NewChanWorld(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Endpoint(r))
		}(r)
	}
	wg.Wait()
	return w
}

func TestSendRecv(t *testing.T) {
	spawn(2, func(e transport.Endpoint) {
		if e.Rank() == 0 {
			e.Send(1, []float64{1, 2, 3})
		} else {
			got := e.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	spawn(2, func(e transport.Endpoint) {
		if e.Rank() == 0 {
			buf := []float64{42}
			e.Send(1, buf)
			buf[0] = 0 // mutation after send must not reach the receiver
		} else {
			if got := e.Recv(0); got[0] != 42 {
				t.Errorf("send did not copy: %v", got)
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	phase := make([]int, 0, 2*n)
	spawn(n, func(e transport.Endpoint) {
		mu.Lock()
		phase = append(phase, 1)
		mu.Unlock()
		e.Barrier()
		mu.Lock()
		phase = append(phase, 2)
		mu.Unlock()
		e.Barrier()
	})
	// All phase-1 entries must precede all phase-2 entries.
	for i, p := range phase[:n] {
		if p != 1 {
			t.Fatalf("entry %d = %d before barrier", i, p)
		}
	}
	for i, p := range phase[n:] {
		if p != 2 {
			t.Fatalf("entry %d = %d after barrier", n+i, p)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, payload := range []int{1, 3, 64, 1000} {
			results := make([][]float64, n)
			spawn(n, func(e transport.Endpoint) {
				buf := make([]float64, payload)
				for i := range buf {
					buf[i] = float64(e.Rank()+1) * float64(i+1)
				}
				e.Allreduce(buf, transport.Sum)
				results[e.Rank()] = buf
			})
			// Expected: Σ_r (r+1)·(i+1) = (i+1)·n(n+1)/2.
			for r, buf := range results {
				for i, v := range buf {
					want := float64(i+1) * float64(n*(n+1)) / 2
					if math.Abs(v-want) > 1e-9 {
						t.Fatalf("n=%d payload=%d rank %d elem %d: %g want %g", n, payload, r, i, v, want)
					}
				}
			}
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 5
	maxRes := make([]float64, n)
	minRes := make([]float64, n)
	spawn(n, func(e transport.Endpoint) {
		buf := []float64{float64(e.Rank())}
		e.Allreduce(buf, transport.Max)
		maxRes[e.Rank()] = buf[0]
		buf2 := []float64{float64(e.Rank())}
		e.Allreduce(buf2, transport.Min)
		minRes[e.Rank()] = buf2[0]
	})
	for r := 0; r < n; r++ {
		if maxRes[r] != n-1 {
			t.Errorf("rank %d max = %g", r, maxRes[r])
		}
		if minRes[r] != 0 {
			t.Errorf("rank %d min = %g", r, minRes[r])
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		results := make([][]float64, n)
		spawn(n, func(e transport.Endpoint) {
			contrib := []float64{float64(e.Rank()) * 10, float64(e.Rank())*10 + 1}
			dst := make([]float64, 2*n)
			e.Allgather(contrib, dst)
			results[e.Rank()] = dst
		})
		for r, dst := range results {
			for k := 0; k < n; k++ {
				if dst[2*k] != float64(k)*10 || dst[2*k+1] != float64(k)*10+1 {
					t.Fatalf("n=%d rank %d: %v", n, r, dst)
				}
			}
		}
	}
}

func TestBytesSentAccounting(t *testing.T) {
	w := spawn(4, func(e transport.Endpoint) {
		buf := make([]float64, 100)
		e.Allreduce(buf, transport.Sum)
	})
	// Ring allreduce: each rank sends 2(n−1) chunks of ~25 doubles.
	want := int64(4 * 2 * 3 * 25 * 8)
	if got := w.BytesSent(); got != want {
		t.Errorf("BytesSent = %d, want %d", got, want)
	}
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world accepted")
		}
	}()
	transport.NewChanWorld(0)
}

func TestRankBounds(t *testing.T) {
	w := transport.NewChanWorld(2)
	if w.Size() != 2 {
		t.Error("Size wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank accepted")
		}
	}()
	w.Endpoint(5)
}

// TestAllreduceUnevenPayload exercises chunk boundaries when the buffer
// does not divide evenly by the rank count.
func TestAllreduceUnevenPayload(t *testing.T) {
	const n = 3
	results := make([][]float64, n)
	spawn(n, func(e transport.Endpoint) {
		buf := []float64{1, 1, 1, 1, 1} // 5 elements over 3 ranks
		e.Allreduce(buf, transport.Sum)
		results[e.Rank()] = buf
	})
	for r, buf := range results {
		for i, v := range buf {
			if v != n {
				t.Fatalf("rank %d elem %d = %g", r, i, v)
			}
		}
	}
}

func TestAllreducePayloadSmallerThanRanks(t *testing.T) {
	const n = 6
	results := make([][]float64, n)
	spawn(n, func(e transport.Endpoint) {
		buf := []float64{float64(e.Rank())}
		e.Allreduce(buf, transport.Sum)
		results[e.Rank()] = buf
	})
	for r, buf := range results {
		if buf[0] != 15 {
			t.Fatalf("rank %d: %v", r, buf)
		}
	}
}

func TestSendRecvCtxBasic(t *testing.T) {
	w := transport.NewChanWorld(2)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := w.Endpoint(0).SendCtx(ctx, 1, []float64{1, 2, 3}); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		msg, err := w.Endpoint(1).RecvCtx(ctx, 0)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if len(msg) != 3 || msg[0] != 1 || msg[2] != 3 {
			t.Errorf("recv payload %v", msg)
		}
	}()
	wg.Wait()
}

func TestRecvCtxTimeout(t *testing.T) {
	w := transport.NewChanWorld(2)
	w.SetTimeout(20 * time.Millisecond)
	_, err := w.Endpoint(1).RecvCtx(context.Background(), 0)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestRecvCtxCallerCancel(t *testing.T) {
	w := transport.NewChanWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.Endpoint(1).RecvCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestInjectedCrash(t *testing.T) {
	w := transport.NewChanWorld(2)
	w.SetTimeout(time.Second)
	// Rank 0 crashes at its 2nd operation (step counter is sends+recvs).
	w.SetFaultInjector(chaos.NewPlan(chaos.Fault{Rank: 0, Step: 2, Kind: chaos.Crash}))
	ctx := context.Background()
	e0 := w.Endpoint(0)
	if err := e0.SendCtx(ctx, 1, []float64{1}); err != nil {
		t.Fatalf("op 0: %v", err)
	}
	if err := e0.SendCtx(ctx, 1, []float64{2}); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := e0.SendCtx(ctx, 1, []float64{3}); !errors.Is(err, transport.ErrRankFailed) {
		t.Fatalf("op 2: want ErrRankFailed, got %v", err)
	}
	if !w.Endpoint(1).PeerFailed(0) {
		t.Fatal("rank 0 should be marked failed")
	}
}

func TestBarrierCtx(t *testing.T) {
	const n = 4
	w := transport.NewChanWorld(n)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer wg.Done()
				if err := w.Endpoint(r).BarrierCtx(ctx); err != nil {
					t.Errorf("rank %d round %d: %v", r, round, err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestCollectivesCtxMatchBlocking checks that the Ctx collectives compute
// what their blocking twins do on a healthy world.
func TestCollectivesCtxMatchBlocking(t *testing.T) {
	const n = 5
	w := transport.NewChanWorld(n)
	w.SetTimeout(time.Second)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			e := w.Endpoint(r)

			buf := []float64{float64(r), float64(2 * r), 1}
			if err := e.BroadcastCtx(ctx, 2, buf); err != nil {
				t.Errorf("broadcast rank %d: %v", r, err)
				return
			}
			if buf[0] != 2 || buf[1] != 4 {
				t.Errorf("broadcast rank %d got %v", r, buf)
			}

			red := []float64{float64(r + 1), 1, float64(-r)}
			if err := e.AllreduceCtx(ctx, red, transport.Sum); err != nil {
				t.Errorf("allreduce rank %d: %v", r, err)
				return
			}
			// sum(r+1) = 15, sum(1) = 5, sum(-r) = -10 for n=5.
			if red[0] != 15 || red[1] != 5 || red[2] != -10 {
				t.Errorf("allreduce rank %d got %v", r, red)
			}
			blocking := []float64{float64(r + 1), 1, float64(-r)}
			e.Allreduce(blocking, transport.Sum)
			for i := range red {
				if blocking[i] != red[i] {
					t.Errorf("rank %d: blocking allreduce %v, Ctx %v", r, blocking, red)
					break
				}
			}

			contrib := []float64{float64(10 * r), float64(10*r + 1)}
			dst := make([]float64, 2*n)
			if err := e.AllgatherCtx(ctx, contrib, dst); err != nil {
				t.Errorf("allgather rank %d: %v", r, err)
				return
			}
			for k := 0; k < n; k++ {
				if dst[2*k] != float64(10*k) || dst[2*k+1] != float64(10*k+1) {
					t.Errorf("allgather rank %d got %v", r, dst)
					break
				}
			}
		}(r)
	}
	wg.Wait()
}
