package transport

// Failure-path tests for the elastic rendezvous: duplicate/extra joiner
// rejection, mid-handshake death, heartbeat-declared death of a hung
// rank, and kill-then-rejoin on both backends.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestCoordinatorRejectsExtraWorker: a world with every rank healthy must
// not hand out a duplicate rank — an extra joiner is rejected whether it
// arrives before the world starts (full slots) or after (no failed rank
// to replace).
func TestCoordinatorRejectsExtraWorker(t *testing.T) {
	const n = 2
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	if _, err := Join(context.Background(), co.Addr(), JoinOptions{Timeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("extra worker joined a healthy running world")
	}
	if got := co.Rejoins(); got != 0 {
		t.Errorf("rejected joiner counted as a rejoin (%d)", got)
	}
}

// TestCoordinatorSurvivesMidHandshakeDeath: a worker that dials, says
// hello, and dies before the world assembles must release its rank slot
// so later joiners can still complete the world — and Wait must not wedge.
func TestCoordinatorSurvivesMidHandshakeDeath(t *testing.T) {
	const n = 2
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// A doomed worker: hello, then vanish without a goodbye. Keep the
	// connection open until the coordinator has observably taken the slot —
	// closing before the hello is processed would race the real joiners.
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrameConn(conn, frameHello, encodeString(nil, "127.0.0.1:1")); err != nil {
		t.Fatal(err)
	}
	waitJoined := func(want int, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			co.mu.Lock()
			ok := co.joined == want
			co.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitJoined(1, "the doomed worker's slot to be taken")
	conn.Close()
	// Its slot must come free again.
	waitJoined(0, "the dead joiner's slot to be released")

	eps := joinWorld(t, co, n)
	for _, ep := range eps {
		ep.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	failed, err := co.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait wedged after a mid-handshake death: %v", err)
	}
	if len(failed) != 0 {
		t.Errorf("failed ranks %v after a clean run", failed)
	}
}

// TestHeartbeatDeclaresFrozenRankDead: a rank that keeps its TCP
// connections open but stops responding (the SIGSTOP/livelock signature)
// must be declared dead by the application-level heartbeat — kernel
// keepalives never fire for it.
func TestHeartbeatDeclaresFrozenRankDead(t *testing.T) {
	const n = 3
	co, err := NewCoordinatorOpts("127.0.0.1:0", n, CoordinatorOptions{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	// Rank 1 sends rank 0 more 8 KB frames than its inbox holds, so some
	// wait in the socket, then freezes: connections stay open, pongs stop.
	const sent = inboxDepth + 8
	for i := 0; i < sent; i++ {
		msg := make([]float64, 1024)
		msg[0] = float64(i)
		if err := eps[1].SendCtx(context.Background(), 0, msg); err != nil {
			t.Fatal(err)
		}
	}
	eps[1].frozen.Store(true)

	deadline := time.Now().Add(10 * time.Second)
	for _, r := range []int{0, 2} {
		for !eps[r].PeerFailed(1) {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never saw the frozen rank declared dead", r)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// With no op timeout set, a receive from the frozen rank delivers what
	// it sent before freezing, even once the grace its still-open
	// connection is given has run out, and then reports it dead.
	time.Sleep(deadPeerGrace + 100*time.Millisecond)
	for i := 0; i < sent; i++ {
		if msg, err := eps[0].RecvCtx(context.Background(), 1); err != nil || msg[0] != float64(i) {
			t.Fatalf("frame %d from the frozen rank: %v, %v", i, err, msg[:min(len(msg), 1)])
		}
	}
	for _, r := range []int{0, 2} {
		recvReportsDead(t, eps[r], 1, deadPeerGrace+5*time.Second)
	}

	// Survivor traffic still flows.
	ctx := context.Background()
	done := make(chan error, 2)
	go func() { done <- eps[0].SendCtx(ctx, 2, []float64{7}) }()
	go func() {
		msg, err := eps[2].RecvCtx(ctx, 0)
		if err == nil && msg[0] != 7 {
			t.Errorf("survivor traffic corrupt: %v", msg)
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("survivor traffic failed: %v", err)
		}
	}
}

// TestTCPRejoinAfterDeath: after a worker is killed, a replacement dialing
// the coordinator takes over the dead rank, the survivors re-dial it, and
// point-to-point traffic with the newcomer works in both directions.
func TestTCPRejoinAfterDeath(t *testing.T) {
	const n = 3
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)

	eps[1].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !eps[0].PeerFailed(1) || !eps[2].PeerFailed(1) {
		if time.Now().After(deadline) {
			t.Fatal("survivors never observed the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The survivors wait for a replacement while it joins.
	awaitErr := make(chan error, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { awaitErr <- eps[0].AwaitRejoin(ctx, 1) }()
	go func() { awaitErr <- eps[2].AwaitRejoin(ctx, 1) }()

	repl, err := Join(context.Background(), co.Addr(), JoinOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	defer repl.Close()
	if repl.Rank() != 1 {
		t.Fatalf("replacement assigned rank %d, want the dead rank 1", repl.Rank())
	}
	for i := 0; i < 2; i++ {
		if err := <-awaitErr; err != nil {
			t.Fatalf("AwaitRejoin: %v", err)
		}
	}
	if eps[0].PeerFailed(1) || eps[2].PeerFailed(1) {
		t.Fatal("rank 1 still flagged failed after rejoin")
	}
	if got := co.Rejoins(); got != 1 {
		t.Errorf("coordinator counted %d rejoins, want 1", got)
	}
	if got := eps[0].Rejoins(); got != 1 {
		t.Errorf("survivor counted %d rejoins, want 1", got)
	}

	// Traffic with the newcomer, both directions, both survivors.
	done := make(chan error, 4)
	go func() { done <- eps[0].SendCtx(ctx, 1, []float64{1}) }()
	go func() { done <- eps[2].SendCtx(ctx, 1, []float64{2}) }()
	go func() {
		m0, err := repl.RecvCtx(ctx, 0)
		if err == nil && m0[0] != 1 {
			t.Errorf("rejoined rank got %v from 0, want [1]", m0)
		}
		done <- err
	}()
	go func() {
		m2, err := repl.RecvCtx(ctx, 2)
		if err == nil && m2[0] != 2 {
			t.Errorf("rejoined rank got %v from 2, want [2]", m2)
		}
		done <- err
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("traffic with the rejoined rank: %v", err)
		}
	}
	if err := repl.SendCtx(ctx, 0, []float64{3}); err != nil {
		t.Fatalf("rejoined rank send: %v", err)
	}
	if m, err := eps[0].RecvCtx(ctx, 1); err != nil || m[0] != 3 {
		t.Fatalf("survivor recv from rejoined rank: %v %v", m, err)
	}

	eps[0].Close()
	eps[2].Close()
	repl.Close()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	failed, err := co.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Errorf("failed ranks %v after a successful rejoin and clean shutdown", failed)
	}
}

// TestRecvFromRankDeadAtRejoin: a replacement joins while another rank is
// still dead; with no op timeout set, its receive from that rank, whose
// slot has no connection, reports it dead at once.
func TestRecvFromRankDeadAtRejoin(t *testing.T) {
	const n = 3
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)
	defer eps[0].Close()
	eps[1].Kill()
	eps[2].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !eps[0].PeerFailed(1) || !eps[0].PeerFailed(2) {
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never observed the kills")
		}
		time.Sleep(5 * time.Millisecond)
	}
	repl, err := Join(context.Background(), co.Addr(), JoinOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	defer repl.Close()
	recvReportsDead(t, repl, 3-repl.Rank(), time.Second)
}

// recvReportsDead fails t unless ep's RecvCtx from src, under a context
// that never ends, returns ErrPeerFailed within limit.
func recvReportsDead(t *testing.T, ep *TCPEndpoint, src int, limit time.Duration) {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := ep.RecvCtx(context.Background(), src)
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrPeerFailed) {
			t.Errorf("rank %d's receive from dead rank %d: %v, want ErrPeerFailed", ep.Rank(), src, err)
		}
	case <-time.After(limit):
		t.Errorf("rank %d's receive from dead rank %d still blocked after %v", ep.Rank(), src, limit)
	}
}

// TestChanReviveRejoin: the in-process analogue — a failed rank revived
// via ChanWorld.Revive satisfies AwaitRejoin and carries traffic again.
func TestChanReviveRejoin(t *testing.T) {
	cw := NewChanWorld(3)
	e0, e2 := cw.Endpoint(0), cw.Endpoint(2)
	cw.FailRank(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e0.SendCtx(ctx, 1, []float64{1}); err == nil {
		t.Fatal("send to failed rank succeeded")
	}

	rj, ok := e0.(Rejoinable)
	if !ok {
		t.Fatal("chan endpoint is not Rejoinable")
	}
	awaitErr := make(chan error, 1)
	go func() { awaitErr <- rj.AwaitRejoin(ctx, 1) }()
	time.Sleep(20 * time.Millisecond)
	cw.Revive(1)
	if err := <-awaitErr; err != nil {
		t.Fatalf("AwaitRejoin after Revive: %v", err)
	}

	e1 := cw.Endpoint(1)
	done := make(chan error, 1)
	go func() { done <- e0.SendCtx(ctx, 1, []float64{42}) }()
	msg, err := e1.RecvCtx(ctx, 0)
	if err != nil || msg[0] != 42 {
		t.Fatalf("revived rank traffic: %v %v", msg, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = e2
}

// writeFrameConn writes one frame straight to a conn (test helper for raw
// protocol pokes).
func writeFrameConn(conn net.Conn, typ byte, payload []byte) error {
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, typ, payload); err != nil {
		return err
	}
	return bw.Flush()
}
