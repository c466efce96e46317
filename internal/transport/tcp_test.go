package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func joinWorld(t *testing.T, co *Coordinator, n int) []*TCPEndpoint {
	t.Helper()
	eps := make([]*TCPEndpoint, n)
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
			eps[ep.Rank()] = ep
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	return eps
}

func TestRendezvousRankAssignment(t *testing.T) {
	const n = 4
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)
	seen := map[int]bool{}
	for _, ep := range eps {
		if ep == nil {
			t.Fatal("a join produced no endpoint")
		}
		if ep.Size() != n {
			t.Errorf("size = %d, want %d", ep.Size(), n)
		}
		if seen[ep.Rank()] {
			t.Errorf("rank %d assigned twice", ep.Rank())
		}
		seen[ep.Rank()] = true
	}
	for r := 0; r < n; r++ {
		if !seen[r] {
			t.Errorf("rank %d never assigned", r)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
}

func TestCoordinatorWaitCleanShutdown(t *testing.T) {
	const n = 3
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)
	for _, ep := range eps {
		ep.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	failed, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Errorf("clean shutdown reported failed ranks %v", failed)
	}
}

func TestCoordinatorDetectsKilledWorker(t *testing.T) {
	const n = 3
	co, err := NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	eps := joinWorld(t, co, n)

	// Rank 1 dies abruptly — the kill -9 signature: RST, no goodbye.
	eps[1].Kill()

	// Survivors must observe the death without any direct traffic to the
	// dead rank, via the coordinator's framePeerFailed broadcast.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range []int{0, 2} {
		for !eps[r].PeerFailed(1) {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never observed rank 1's death", r)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Survivors can still talk to each other.
	ctx := context.Background()
	done := make(chan error, 2)
	go func() { done <- eps[0].SendCtx(ctx, 2, []float64{3.5}) }()
	go func() {
		msg, err := eps[2].RecvCtx(ctx, 0)
		if err == nil && msg[0] != 3.5 {
			t.Errorf("survivor traffic corrupt: %v", msg)
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("survivor traffic failed: %v", err)
		}
	}

	eps[0].Close()
	eps[2].Close()
	ctx2, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	failed, err := co.Wait(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Errorf("Wait reported failed=%v, want [1]", failed)
	}
}

func TestJoinTimeoutWhenWorldIncomplete(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// Only one worker joins a world of two: Join must give up, not hang.
	_, err = Join(context.Background(), co.Addr(), JoinOptions{Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("Join succeeded with an incomplete world")
	}
}

func TestWireFloatRoundTrip(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5, -math.Pi, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	out, err := decodeFloats(encodeFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d != %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("elem %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
}

// wireTestPayloads are the frame payloads of TestWireFrameRoundTrip, frame
// type i+1 for payload i; FuzzReadFrame starts from their frames.
var wireTestPayloads = [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 1000)}

// encodeFrame returns the bytes writeFrame puts on the wire for one frame.
func encodeFrame(tb testing.TB, typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, typ, payload); err != nil {
		tb.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for i, p := range wireTestPayloads {
		buf.Write(encodeFrame(t, byte(i+1), p))
	}
	br := bufio.NewReader(&buf)
	for i, p := range wireTestPayloads {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(payload, p) {
			t.Errorf("frame %d: type %d payload %d bytes", i, typ, len(payload))
		}
	}
}

func TestWireRejectsOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // length ≫ maxFrameLen
	if _, _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestReadFrameAllocatesOnlyWhatArrives: a length prefix is a claim, not
// a body. A header claiming 64 MiB followed by 10 bytes and EOF is an
// error that costs far less than the claim, and the body of a frame under
// frameChunk is one allocation: it costs no more allocations than a frame
// with no payload.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, 64<<20)
	in = append(in, bytes.Repeat([]byte{frameData}, 10)...)
	br := bufio.NewReader(bytes.NewReader(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(br)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut off after 10 of 64 MiB was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("reading 10 body bytes of a 64 MiB claim allocated %d bytes", grew)
	}

	allocs := func(payload int) float64 {
		frame := encodeFrame(t, frameData, make([]byte, payload))
		src := bytes.NewReader(frame)
		br := bufio.NewReader(src)
		return testing.AllocsPerRun(100, func() {
			src.Reset(frame)
			br.Reset(src)
			if _, _, err := readFrame(br); err != nil {
				t.Fatal(err)
			}
		})
	}
	if big, empty := allocs(20000), allocs(0); big != empty {
		t.Errorf("a 20 kB frame took %v allocations, an empty one %v", big, empty)
	}
}

// TestReadFrameOneAllocation: a frame costs its body and nothing else,
// the length prefix included. The prefix and the body each end as
// io.ReadFull ends: io.EOF for a stream that stops before the part,
// io.ErrUnexpectedEOF for one that stops inside it.
func TestReadFrameOneAllocation(t *testing.T) {
	frame := encodeFrame(t, frameData, make([]byte, 3200))
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, _, err := readFrame(br); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("a 3.2 kB frame took %v allocations, want 1", allocs)
	}
	for cut, want := range map[int]error{0: io.EOF, 2: io.ErrUnexpectedEOF, 4: io.EOF, 100: io.ErrUnexpectedEOF} {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:cut]))); err != want {
			t.Errorf("stream cut after %d bytes: %v, want %v", cut, err, want)
		}
	}
}

// TestWriteFrameNoAllocation: writing a frame into a connection's
// bufio.Writer allocates nothing, the header included.
func TestWriteFrameNoAllocation(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	payload := make([]byte, 3200)
	allocs := testing.AllocsPerRun(100, func() {
		if err := writeFrame(bw, frameData, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writing a 3.2 kB frame took %v allocations, want 0", allocs)
	}
}

// FuzzReadFrame: whatever bytes arrive, readFrame returns an error or a
// frame that writeFrame re-encodes to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	capMinimize()
	var all bytes.Buffer
	for i, p := range wireTestPayloads {
		one := encodeFrame(f, byte(i+1), p)
		f.Add(one)
		all.Write(one)
	}
	f.Add(all.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		typ, payload, err := readFrame(br)
		if err != nil {
			return
		}
		consumed := len(data) - src.Len() - br.Buffered()
		if out := encodeFrame(t, typ, payload); !bytes.Equal(out, data[:consumed]) {
			t.Fatalf("frame re-encodes to %x, consumed %x", out, data[:consumed])
		}
	})
}

// capMinimize limits how long the fuzzing engine shrinks an input that
// found new coverage to 200 calls of the fuzz function, unless the command
// line sets -test.fuzzminimizetime (internal/rewl's fuzz targets do the
// same). By default the engine spends up to 60 s on every such input with
// a byte-subset pass quadratic in its length, and a minimizing worker
// executes nothing new: on kilobyte frames a 30 s run stalled after a few
// seconds.
func capMinimize() {
	set := false
	flag.Visit(func(fl *flag.Flag) { set = set || fl.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "200x") //nolint:errcheck // a valid value
	}
}

func TestWireStringRoundTrip(t *testing.T) {
	b := encodeString(nil, "127.0.0.1:9999")
	b = encodeString(b, "")
	s1, rest, err := decodeString(b)
	if err != nil || s1 != "127.0.0.1:9999" {
		t.Fatalf("s1=%q err=%v", s1, err)
	}
	s2, rest, err := decodeString(rest)
	if err != nil || s2 != "" || len(rest) != 0 {
		t.Fatalf("s2=%q rest=%d err=%v", s2, len(rest), err)
	}
}
