package transport

// Backend conformance suite: every behavioral contract of the Endpoint
// interface — message ordering, payload copy/aliasing semantics, BytesSent
// accounting parity, collective results, fault propagation, context
// cancellation, barrier semantics — verified against both backends with
// the same scripts, so REWL and DDP code written against the interface
// behaves identically in one process and across processes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/chaos"
)

// fixture is one instantiated world of a backend under test.
type fixture struct {
	name       string
	eps        []Endpoint
	worldBytes func() int64 // world-wide payload bytes (see Endpoint.BytesSent)
	failRank   func(r int)  // simulate a permanent rank death
	close      func()
}

// fixtureConfig is applied before any endpoint communicates.
type fixtureConfig struct {
	timeout time.Duration
	inject  FaultInjector
}

func newChanFixture(t *testing.T, n int, cfg fixtureConfig) *fixture {
	t.Helper()
	cw := NewChanWorld(n)
	if cfg.timeout > 0 {
		cw.SetTimeout(cfg.timeout)
	}
	if cfg.inject != nil {
		cw.SetFaultInjector(cfg.inject)
	}
	eps := make([]Endpoint, n)
	for r := 0; r < n; r++ {
		eps[r] = cw.Endpoint(r)
	}
	return &fixture{
		name:       "chan",
		eps:        eps,
		worldBytes: cw.BytesSent,
		failRank:   cw.FailRank,
		close:      func() {},
	}
}

func newTCPFixture(t *testing.T, n int, cfg fixtureConfig) *fixture {
	t.Helper()
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Endpoint, n)
	tcps := make([]*TCPEndpoint, n)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := Join(context.Background(), co.Addr(), JoinOptions{Timeout: 20 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			if cfg.timeout > 0 {
				ep.SetTimeout(cfg.timeout)
			}
			if cfg.inject != nil {
				ep.SetFaultInjector(cfg.inject)
			}
			eps[ep.Rank()] = ep
			tcps[ep.Rank()] = ep
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		co.Close()
		t.Fatal(err)
	default:
	}
	return &fixture{
		name: "tcp",
		eps:  eps,
		worldBytes: func() int64 {
			var total int64
			for _, ep := range eps {
				total += ep.BytesSent()
			}
			return total
		},
		failRank: func(r int) { tcps[r].Kill() },
		close: func() {
			for _, ep := range eps {
				ep.Close()
			}
			co.Close()
		},
	}
}

// eachBackend runs fn against a fresh world of each backend.
func eachBackend(t *testing.T, n int, cfg fixtureConfig, fn func(t *testing.T, fx *fixture)) {
	t.Helper()
	for _, mk := range []func(*testing.T, int, fixtureConfig) *fixture{newChanFixture, newTCPFixture} {
		fx := mk(t, n, cfg)
		t.Run(fx.name, func(t *testing.T) {
			defer fx.close()
			fn(t, fx)
		})
	}
}

// runRanks drives one function per rank concurrently and fails the test on
// any returned error.
func runRanks(t *testing.T, fx *fixture, fn func(ep Endpoint) error) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, len(fx.eps))
	for _, ep := range fx.eps {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			if err := fn(ep); err != nil {
				errCh <- err
			}
		}(ep)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestConformanceOrdering(t *testing.T) {
	const msgs = 32
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			switch ep.Rank() {
			case 0:
				for i := 0; i < msgs; i++ {
					if err := ep.SendCtx(ctx, 1, []float64{float64(i), float64(2 * i)}); err != nil {
						return err
					}
				}
			case 1:
				for i := 0; i < msgs; i++ {
					msg, err := ep.RecvCtx(ctx, 0)
					if err != nil {
						return err
					}
					if len(msg) != 2 || msg[0] != float64(i) || msg[1] != float64(2*i) {
						t.Errorf("message %d out of order or corrupt: %v", i, msg)
					}
				}
			}
			return nil
		})
	})
}

func TestConformanceAliasing(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			switch ep.Rank() {
			case 0:
				buf := []float64{1, 2, 3}
				if err := ep.SendCtx(ctx, 1, buf); err != nil {
					return err
				}
				// The payload must be copied at send time: mutating the
				// buffer after Send returns must not affect the message.
				buf[0], buf[1], buf[2] = -1, -2, -3
				if err := ep.SendCtx(ctx, 1, buf); err != nil {
					return err
				}
			case 1:
				first, err := ep.RecvCtx(ctx, 0)
				if err != nil {
					return err
				}
				if first[0] != 1 || first[1] != 2 || first[2] != 3 {
					t.Errorf("first message corrupted by sender mutation: %v", first)
				}
				// The received slice must be private: mutating it must not
				// bleed into later messages.
				first[0] = 99
				second, err := ep.RecvCtx(ctx, 0)
				if err != nil {
					return err
				}
				if second[0] != -1 || second[1] != -2 || second[2] != -3 {
					t.Errorf("second message wrong: %v", second)
				}
			}
			return nil
		})
	})
}

func TestConformanceCollectives(t *testing.T) {
	const n = 4
	type results struct {
		mu   sync.Mutex
		sum  [][]float64
		max  [][]float64
		bc   [][]float64
		gath [][]float64
	}
	perBackend := map[string]*results{}

	eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		res := &results{
			sum:  make([][]float64, n),
			max:  make([][]float64, n),
			bc:   make([][]float64, n),
			gath: make([][]float64, n),
		}
		perBackend[fx.name] = res
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			r := ep.Rank()
			sum := []float64{float64(r), float64(r) * 0.5, -float64(r)}
			if err := ep.AllreduceCtx(ctx, sum, Sum); err != nil {
				return err
			}
			max := []float64{float64((r * 7) % n), -float64(r)}
			if err := ep.AllreduceCtx(ctx, max, Max); err != nil {
				return err
			}
			bc := make([]float64, 3)
			if r == 2 {
				bc[0], bc[1], bc[2] = math.Pi, math.Inf(-1), math.Copysign(0, -1)
			}
			if err := ep.BroadcastCtx(ctx, 2, bc); err != nil {
				return err
			}
			contrib := []float64{float64(r * 10), float64(r*10 + 1)}
			gath := make([]float64, 2*n)
			if err := ep.AllgatherCtx(ctx, contrib, gath); err != nil {
				return err
			}
			res.mu.Lock()
			res.sum[r], res.max[r], res.bc[r], res.gath[r] = sum, max, bc, gath
			res.mu.Unlock()
			return nil
		})

		// Exact expected values on every rank.
		wantSum := []float64{0 + 1 + 2 + 3, 0.5 * (0 + 1 + 2 + 3), -(0.0 + 1 + 2 + 3)}
		for r := 0; r < n; r++ {
			for i := range wantSum {
				if res.sum[r][i] != wantSum[i] {
					t.Errorf("rank %d allreduce sum[%d] = %v, want %v", r, i, res.sum[r][i], wantSum[i])
				}
			}
			if res.bc[r][0] != math.Pi || !math.IsInf(res.bc[r][1], -1) {
				t.Errorf("rank %d broadcast got %v", r, res.bc[r])
			}
			if math.Signbit(res.bc[r][2]) != true {
				t.Errorf("rank %d broadcast lost signed zero", r)
			}
			for q := 0; q < n; q++ {
				if res.gath[r][2*q] != float64(q*10) || res.gath[r][2*q+1] != float64(q*10+1) {
					t.Errorf("rank %d allgather slot %d = %v", r, q, res.gath[r][2*q:2*q+2])
				}
			}
		}
	})

	// Bit-identity across backends.
	ch, tc := perBackend["chan"], perBackend["tcp"]
	if ch == nil || tc == nil {
		t.Fatal("missing backend results")
	}
	for r := 0; r < n; r++ {
		for i := range ch.sum[r] {
			if math.Float64bits(ch.sum[r][i]) != math.Float64bits(tc.sum[r][i]) {
				t.Errorf("allreduce sum not bit-identical across backends at rank %d elem %d", r, i)
			}
		}
		for i := range ch.max[r] {
			if math.Float64bits(ch.max[r][i]) != math.Float64bits(tc.max[r][i]) {
				t.Errorf("allreduce max not bit-identical across backends at rank %d elem %d", r, i)
			}
		}
	}
}

// TestConformanceBytesSent runs an identical op schedule on both backends
// and requires the world-wide byte accounting to agree exactly.
func TestConformanceBytesSent(t *testing.T) {
	const n = 3
	script := func(fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			r := ep.Rank()
			// At most 4 eager sends: the in-process backend buffers 4
			// messages per (src,dst) pair, and the conformance contract
			// only guarantees that much slack.
			for i := 0; i < 4; i++ {
				if err := ep.SendCtx(ctx, (r+1)%n, make([]float64, 7)); err != nil {
					return err
				}
			}
			for i := 0; i < 4; i++ {
				if _, err := ep.RecvCtx(ctx, (r-1+n)%n); err != nil {
					return err
				}
			}
			buf := make([]float64, 12)
			if err := ep.AllreduceCtx(ctx, buf, Sum); err != nil {
				return err
			}
			return nil
		})
	}
	var totals []int64
	eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		script(fx)
		totals = append(totals, fx.worldBytes())
	})
	if len(totals) != 2 {
		t.Fatalf("expected 2 backend totals, got %d", len(totals))
	}
	if totals[0] != totals[1] {
		t.Errorf("BytesSent accounting differs: chan=%d tcp=%d", totals[0], totals[1])
	}
	// Point-to-point floor: 3 ranks × 4 msgs × 7 floats × 8 bytes, plus
	// collective traffic on top.
	if floor := int64(3 * 4 * 7 * 8); totals[0] <= floor {
		t.Errorf("BytesSent %d does not exceed p2p floor %d (collectives unaccounted?)", totals[0], floor)
	}
}

func TestConformanceFaultCrashPropagation(t *testing.T) {
	// Rank 1 crashes at its third operation; rank 0 must observe the death
	// as ErrPeerFailed instead of hanging.
	plan := chaos.NewPlan(chaos.Fault{Rank: 1, Step: 2, Kind: chaos.Crash})
	eachBackend(t, 2, fixtureConfig{inject: plan, timeout: 5 * time.Second}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			switch ep.Rank() {
			case 1:
				for i := 0; i < 3; i++ {
					err := ep.SendCtx(ctx, 0, []float64{float64(i)})
					if i < 2 && err != nil {
						return err
					}
					if i == 2 {
						if !errors.Is(err, ErrRankFailed) {
							t.Errorf("crashed rank's own op: got %v, want ErrRankFailed", err)
						}
					}
				}
			case 0:
				for i := 0; i < 2; i++ {
					msg, err := ep.RecvCtx(ctx, 1)
					if err != nil {
						return err
					}
					if msg[0] != float64(i) {
						t.Errorf("pre-crash message %d corrupt: %v", i, msg)
					}
				}
				if _, err := ep.RecvCtx(ctx, 1); !errors.Is(err, ErrPeerFailed) {
					t.Errorf("recv from crashed peer: got %v, want ErrPeerFailed", err)
				}
				if !ep.PeerFailed(1) {
					t.Error("PeerFailed(1) false after observing the crash")
				}
			}
			return nil
		})
	})
}

func TestConformanceFaultDropSend(t *testing.T) {
	// Rank 0's second send (seq 1) is dropped: the receiver sees messages
	// 0 and 2, and the dropped payload still counts as sent bytes on both
	// backends ("sent, then lost in the network").
	mkPlan := func() *chaos.Plan {
		return chaos.NewPlan(chaos.Fault{Rank: 0, Step: 1, Kind: chaos.DropSend})
	}
	var totals []int64
	eachBackend(t, 2, fixtureConfig{inject: mkPlan()}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			switch ep.Rank() {
			case 0:
				for i := 0; i < 3; i++ {
					if err := ep.SendCtx(ctx, 1, []float64{float64(i)}); err != nil {
						return err
					}
				}
			case 1:
				want := []float64{0, 2}
				for _, w := range want {
					msg, err := ep.RecvCtx(ctx, 0)
					if err != nil {
						return err
					}
					if msg[0] != w {
						t.Errorf("got message %v, want %v (drop not applied by sequence)", msg[0], w)
					}
				}
			}
			return nil
		})
		totals = append(totals, fx.worldBytes())
	})
	if totals[0] != totals[1] || totals[0] != 3*1*8 {
		t.Errorf("dropped-send byte accounting: chan=%d tcp=%d, want both %d", totals[0], totals[1], 3*8)
	}
}

func TestConformanceContextCancellation(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := fx.eps[0].RecvCtx(ctx, 1)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled recv: got %v, want context.Canceled", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Error("cancellation not prompt")
		}
	})
}

func TestConformanceOpTimeout(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{timeout: 40 * time.Millisecond}, func(t *testing.T, fx *fixture) {
		_, err := fx.eps[0].RecvCtx(context.Background(), 1)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("timed-out recv: got %v, want ErrTimeout", err)
		}
	})
}

func TestConformanceBarrier(t *testing.T) {
	const n = 3
	eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		counter := make(chan int, n*4)
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			for round := 0; round < 4; round++ {
				// Stagger arrivals so the barrier actually gates.
				time.Sleep(time.Duration(ep.Rank()*5) * time.Millisecond)
				counter <- round
				if err := ep.BarrierCtx(ctx); err != nil {
					return err
				}
				// After the barrier every rank's token for this round must
				// already be in the channel.
				if len(counter) < (round+1)*n-n {
					t.Errorf("barrier released early in round %d", round)
				}
			}
			return nil
		})
	})
}

func TestConformanceBarrierWithFailedRank(t *testing.T) {
	const n = 3
	eachBackend(t, n, fixtureConfig{timeout: 500 * time.Millisecond}, func(t *testing.T, fx *fixture) {
		fx.failRank(2)
		time.Sleep(50 * time.Millisecond) // let the death propagate
		runRanks(t, fx, func(ep Endpoint) error {
			if ep.Rank() == 2 {
				return nil
			}
			if err := ep.BarrierCtx(context.Background()); err == nil {
				t.Errorf("rank %d: barrier with a dead rank returned nil", ep.Rank())
			}
			return nil
		})
	})
}

// TestConformanceLargePayloadCollectives pushes ~1 MiB frames — 131072
// float64s, the magnitude of a batched gradient allreduce or a full-model
// broadcast — through Allgather and Broadcast on both backends. Small-frame
// tests never exercise the TCP backend's framing across partial reads and
// writev boundaries; a single wrong length prefix or short-read bug shows
// up here as element-level corruption.
func TestConformanceLargePayloadCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("MiB-scale collective frames in -short mode")
	}
	const (
		n       = 3
		perRank = 131072 // 1 MiB of float64s per rank
	)
	elem := func(r, i int) float64 {
		// Rank- and position-dependent, irregular enough that any frame
		// slicing error misaligns it, including non-finite payloads.
		switch i % 1024 {
		case 512:
			return math.Inf(+1)
		case 513:
			return math.Copysign(0, -1)
		}
		return float64(r+1)*1e6 + float64(i) + 1/float64(i+3)
	}
	eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			ctx := context.Background()
			r := ep.Rank()

			contrib := make([]float64, perRank)
			for i := range contrib {
				contrib[i] = elem(r, i)
			}
			gath := make([]float64, n*perRank)
			if err := ep.AllgatherCtx(ctx, contrib, gath); err != nil {
				return err
			}
			for q := 0; q < n; q++ {
				for i := 0; i < perRank; i++ {
					if got, want := gath[q*perRank+i], elem(q, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("rank %d allgather slot %d elem %d: got %v, want %v", r, q, i, got, want)
						return nil // one misalignment floods; first instance is enough
					}
				}
			}

			bc := make([]float64, perRank)
			if r == 1 {
				for i := range bc {
					bc[i] = elem(7, i)
				}
			}
			if err := ep.BroadcastCtx(ctx, 1, bc); err != nil {
				return err
			}
			for i := range bc {
				if math.Float64bits(bc[i]) != math.Float64bits(elem(7, i)) {
					t.Errorf("rank %d broadcast elem %d: got %v, want %v", r, i, bc[i], elem(7, i))
					return nil
				}
			}
			return nil
		})
	})
}

func TestConformanceBlockingOpsHealthyWorld(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		runRanks(t, fx, func(ep Endpoint) error {
			r := ep.Rank()
			if r == 0 {
				ep.Send(1, []float64{42})
			} else {
				if msg := ep.Recv(0); msg[0] != 42 {
					t.Errorf("blocking recv got %v", msg)
				}
			}
			buf := []float64{float64(r + 1)}
			ep.Allreduce(buf, Sum)
			if buf[0] != 3 {
				t.Errorf("blocking allreduce got %v", buf[0])
			}
			ep.Barrier()
			b := []float64{0}
			if r == 0 {
				b[0] = 7
			}
			ep.Broadcast(0, b)
			if b[0] != 7 {
				t.Errorf("blocking broadcast got %v", b[0])
			}
			g := make([]float64, 2)
			ep.Allgather([]float64{float64(r)}, g)
			if g[0] != 0 || g[1] != 1 {
				t.Errorf("blocking allgather got %v", g)
			}
			return nil
		})
	})
}

// TestConformanceRankOutsideWorld: a peer rank outside the world is an
// error on both backends, not a crash, and consumes no operation step.
func TestConformanceRankOutsideWorld(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		ctx := context.Background()
		ep := fx.eps[0]
		for _, r := range []int{5, -1} {
			err := ep.SendCtx(ctx, r, []float64{1})
			if want := fmt.Sprintf("transport: send to rank %d outside world of 2", r); err == nil || err.Error() != want {
				t.Errorf("SendCtx to rank %d: got %v, want %q", r, err, want)
			}
			_, err = ep.RecvCtx(ctx, r)
			if want := fmt.Sprintf("transport: recv from rank %d outside world of 2", r); err == nil || err.Error() != want {
				t.Errorf("RecvCtx from rank %d: got %v, want %q", r, err, want)
			}
		}
	})
}

// TestConformanceDelayHonoursTimeout: an injected send delay sleeps on the
// operation context, so a delay within the timeout only slows the send and
// a delay beyond it turns into ErrTimeout when the timeout fires.
func TestConformanceDelayHonoursTimeout(t *testing.T) {
	plan := chaos.NewPlan(
		chaos.Fault{Rank: 0, Step: 0, Kind: chaos.DelaySend, Delay: 20 * time.Millisecond},
		chaos.Fault{Rank: 0, Step: 1, Kind: chaos.DelaySend, Delay: time.Second},
	)
	eachBackend(t, 2, fixtureConfig{inject: plan, timeout: 150 * time.Millisecond}, func(t *testing.T, fx *fixture) {
		ctx := context.Background()
		start := time.Now()
		if err := fx.eps[0].SendCtx(ctx, 1, []float64{1}); err != nil {
			t.Fatalf("send delayed within the timeout: %v", err)
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Errorf("delayed send returned after %v, want ≥ 20ms", d)
		}
		if msg, err := fx.eps[1].RecvCtx(ctx, 0); err != nil || msg[0] != 1 {
			t.Fatalf("recv of the delayed message: %v %v", msg, err)
		}
		start = time.Now()
		if err := fx.eps[0].SendCtx(ctx, 1, []float64{2}); !errors.Is(err, ErrTimeout) {
			t.Errorf("send delayed past the timeout: got %v, want ErrTimeout", err)
		}
		if d := time.Since(start); d > 750*time.Millisecond {
			t.Errorf("timed-out send returned after %v; the delay ignored the timeout", d)
		}
	})
}

// TestConformanceBroadcastAllRoots: the binomial tree delivers from every
// root at every world size up to 4, including the degenerate world of one.
func TestConformanceBroadcastAllRoots(t *testing.T) {
	for n := 1; n <= 4; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
				for root := 0; root < n; root++ {
					runRanks(t, fx, func(ep Endpoint) error {
						buf := make([]float64, 4)
						if ep.Rank() == root {
							for i := range buf {
								buf[i] = float64(100*root + i)
							}
						}
						if err := ep.BroadcastCtx(context.Background(), root, buf); err != nil {
							return err
						}
						for i, v := range buf {
							if want := float64(100*root + i); v != want {
								t.Errorf("root %d rank %d buf[%d] = %v, want %v", root, ep.Rank(), i, v, want)
							}
						}
						return nil
					})
				}
			})
		})
	}
}

// TestConformanceAllreduceOps: Sum, Max and Min across the ring, with
// payloads that do not divide by the rank count and payloads shorter than
// it (empty chunks), against exact sequential reductions.
func TestConformanceAllreduceOps(t *testing.T) {
	val := func(r, i int) float64 { return float64((r*7+i*3)%5) - 2 + 0.25*float64(r) }
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			eachBackend(t, n, fixtureConfig{}, func(t *testing.T, fx *fixture) {
				for _, op := range []Op{Sum, Max, Min} {
					for _, m := range []int{1, 2, 5, 7} {
						want := make([]float64, m)
						for i := range want {
							want[i] = val(0, i)
							for r := 1; r < n; r++ {
								switch op {
								case Sum:
									want[i] += val(r, i)
								case Max:
									want[i] = math.Max(want[i], val(r, i))
								case Min:
									want[i] = math.Min(want[i], val(r, i))
								}
							}
						}
						runRanks(t, fx, func(ep Endpoint) error {
							buf := make([]float64, m)
							for i := range buf {
								buf[i] = val(ep.Rank(), i)
							}
							if err := ep.AllreduceCtx(context.Background(), buf, op); err != nil {
								return err
							}
							for i := range buf {
								if buf[i] != want[i] {
									t.Errorf("op %d payload %d rank %d elem %d = %v, want %v", op, m, ep.Rank(), i, buf[i], want[i])
								}
							}
							return nil
						})
					}
				}
			})
		})
	}
}

// TestConformanceAllgatherLengthMismatch: a dst that is not contrib × Size
// long is an error before any message moves, and a panic when blocking.
func TestConformanceAllgatherLengthMismatch(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{}, func(t *testing.T, fx *fixture) {
		ep := fx.eps[0]
		if err := ep.AllgatherCtx(context.Background(), []float64{1}, make([]float64, 3)); err == nil {
			t.Error("AllgatherCtx accepted dst of 3 for 1 × 2 ranks")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("blocking Allgather accepted dst of 3 for 1 × 2 ranks")
				}
			}()
			ep.Allgather([]float64{1}, make([]float64, 3))
		}()
		if got := fx.worldBytes(); got != 0 {
			t.Errorf("rejected allgather sent %d bytes", got)
		}
	})
}

// TestConformancePeerFailure: once rank 1 has failed, a send to it is
// ErrPeerFailed and rank 1's own operations are ErrRankFailed.
func TestConformancePeerFailure(t *testing.T) {
	eachBackend(t, 2, fixtureConfig{timeout: 5 * time.Second}, func(t *testing.T, fx *fixture) {
		fx.failRank(1)
		deadline := time.Now().Add(5 * time.Second)
		for !fx.eps[0].PeerFailed(1) {
			if time.Now().After(deadline) {
				t.Fatal("rank 0 never observed rank 1's failure")
			}
			time.Sleep(5 * time.Millisecond)
		}
		ctx := context.Background()
		if err := fx.eps[0].SendCtx(ctx, 1, []float64{1}); !errors.Is(err, ErrPeerFailed) {
			t.Errorf("send to failed peer: got %v, want ErrPeerFailed", err)
		}
		if err := fx.eps[1].SendCtx(ctx, 0, []float64{1}); !errors.Is(err, ErrRankFailed) {
			t.Errorf("failed rank's own send: got %v, want ErrRankFailed", err)
		}
		if _, err := fx.eps[1].RecvCtx(ctx, 0); !errors.Is(err, ErrRankFailed) {
			t.Errorf("failed rank's own recv: got %v, want ErrRankFailed", err)
		}
	})
}

// TestConformanceCollectiveCrash: a rank that crashes at its first
// operation leaves the ring allreduce unfinishable; every survivor gets an
// error instead of hanging or completing a broken collective.
func TestConformanceCollectiveCrash(t *testing.T) {
	const n = 4
	plan := chaos.NewPlan(chaos.Fault{Rank: 2, Step: 0, Kind: chaos.Crash})
	eachBackend(t, n, fixtureConfig{inject: plan, timeout: 300 * time.Millisecond}, func(t *testing.T, fx *fixture) {
		errs := make([]error, n)
		runRanks(t, fx, func(ep Endpoint) error {
			errs[ep.Rank()] = ep.AllreduceCtx(context.Background(), []float64{1, 2, 3, 4}, Sum)
			return nil
		})
		if !errors.Is(errs[2], ErrRankFailed) {
			t.Errorf("crashed rank: got %v, want ErrRankFailed", errs[2])
		}
		for r, err := range errs {
			if r != 2 && err == nil {
				t.Errorf("survivor rank %d completed a broken collective", r)
			}
		}
	})
}

// Chan-only contracts; the world's other chan-only checks are in
// chan_test.go.

// TestChanBarrierWithdrawsOnTimeout: a rank that times out of a barrier
// withdraws its arrival, so the next full barrier still completes rather
// than releasing early or counting a ghost.
func TestChanBarrierWithdrawsOnTimeout(t *testing.T) {
	cw := NewChanWorld(2)
	cw.SetTimeout(20 * time.Millisecond)
	e0, e1 := cw.Endpoint(0), cw.Endpoint(1)
	ctx := context.Background()
	if err := e0.BarrierCtx(ctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("lone barrier: got %v, want ErrTimeout", err)
	}
	cw.SetTimeout(5 * time.Second)
	done := make(chan error, 1)
	go func() { done <- e1.BarrierCtx(ctx) }()
	if err := e0.BarrierCtx(ctx); err != nil {
		t.Errorf("rank 0: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("rank 1: %v", err)
	}
}
