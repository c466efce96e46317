package transport

// TCP backend: an Endpoint whose ranks are OS processes (or goroutines in
// tests) connected by a full mesh of TCP connections, assembled through a
// rendezvous Coordinator (rendezvous.go) and speaking the length-prefixed
// frame format of wire.go.
//
// Topology. Rank j dials every lower rank i < j after the coordinator's
// address exchange, so each pair shares exactly one connection. Frames on
// a connection are FIFO, which gives the same per-pair message ordering as
// the chan backend's mailboxes. A per-peer reader goroutine decodes frames
// into a buffered inbox channel; Recv semantics (including draining
// messages that arrived before a peer died) therefore match the chan
// backend's.
//
// Failure model. A connection error or EOF without a clean goodbye marks
// the peer permanently failed — exactly ChanWorld.FailRank, but detected
// by the kernel instead of declared by a test. The coordinator broadcasts
// framePeerFailed so ranks with no direct traffic to the dead peer also
// observe the death, and barriers release with a failure count instead of
// hanging. Hung-but-connected ranks are caught by the coordinator's
// application-level heartbeat (rendezvous.go), not by kernel keepalives.
// Injected faults (SetFaultInjector) are applied at the socket layer: a
// crash abruptly closes every connection (the kill -9 wire signature), a
// dropped send is a frame never written, a delayed send is a stalled
// write — so a chaos.Plan exercised on the chan backend replays over real
// sockets.
//
// Elastic rejoin. Peer state is held per incarnation in a peerSlot: when
// the coordinator announces a replacement worker (framePeerJoined), each
// survivor dials the newcomer and atomically installs a fresh slot — new
// connection, empty inbox, un-failed — retiring the dead incarnation so
// its reader loop, stale frames, and failure flags cannot leak into the
// replacement's world. AwaitRejoin lets the application (the REWL leader)
// block until that installation happens.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// inboxDepth buffers decoded frames per peer so a sender running slightly
// ahead never stalls on the receiver's op loop; beyond it, TCP
// backpressure applies.
const inboxDepth = 64

// rejoinDialTimeout bounds a survivor's dial to a rejoined peer's mesh
// listener.
const rejoinDialTimeout = 15 * time.Second

// deadPeerGrace is how long the read loop of a peer declared dead keeps
// waiting for its next frame. The coordinator's notice of a death can
// overtake the peer's last frames, which the grace lets in; a peer that
// keeps its connection open (a hung process) is cut off when it ends.
const deadPeerGrace = time.Second

// JoinOptions configures Join.
type JoinOptions struct {
	// Bind is the mesh listen address (default "127.0.0.1:0"). Use a
	// routable host for multi-machine worlds.
	Bind string
	// Advertise overrides the host the mesh address is announced with
	// (the bound port is appended); empty announces the bound address.
	Advertise string
	// Timeout bounds the whole rendezvous (default 30s).
	Timeout time.Duration
	// Logf receives progress lines (default discards).
	Logf func(format string, args ...any)
}

// peerConn is one mesh or coordinator connection with serialized writes.
type peerConn struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
}

func (p *peerConn) write(deadline time.Time, typ byte, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	if err := writeFrame(p.bw, typ, payload); err != nil {
		return err
	}
	return p.bw.Flush()
}

// peerSlot is one incarnation of a peer rank: its connection, inbox, and
// failure state. A rejoin replaces the whole slot, so a retired
// incarnation's frames and failure flags cannot reach the replacement.
type peerSlot struct {
	pc      *peerConn // nil for the self slot
	inbox   chan []float64
	failCh  chan struct{}
	failed  atomic.Bool
	retired chan struct{} // closed when a replacement slot is installed
	readEnd chan struct{} // closed when the slot's peerReadLoop returns, or at once without pc
}

func newPeerSlot(pc *peerConn) *peerSlot {
	s := &peerSlot{
		pc:      pc,
		inbox:   make(chan []float64, inboxDepth),
		failCh:  make(chan struct{}),
		retired: make(chan struct{}),
		readEnd: make(chan struct{}),
	}
	if pc == nil {
		close(s.readEnd) // no connection, so no read loop
	}
	return s
}

// barrierRelease is a decoded frameBarrierRelease.
type barrierRelease struct {
	seq     uint64
	nFailed int
}

// TCPEndpoint is one rank of a TCP world. See Endpoint for the contract;
// like an MPI rank it belongs to a single thread of execution.
type TCPEndpoint struct {
	core
	logf func(format string, args ...any)

	coord *peerConn

	pmu   sync.Mutex
	slots []*peerSlot // by rank; the slot at rank is the self slot

	coordDead chan struct{}
	coordOnce sync.Once

	rejoins atomic.Int64
	frozen  atomic.Bool // test hook: stop answering heartbeats

	barrierCh  chan barrierRelease
	barrierSeq uint64

	closed    atomic.Bool
	closeOnce sync.Once
}

// slot returns the current incarnation for rank r.
func (e *TCPEndpoint) slot(r int) *peerSlot {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	return e.slots[r]
}

// Join enters the world coordinated at coordAddr: it binds a mesh
// listener, registers with the coordinator, receives its rank and the
// peer addresses, establishes the connection mesh, and returns once the
// coordinator has confirmed every rank is connected. If the world is
// already running with a failed rank, the coordinator instead admits this
// worker as that rank's replacement: the survivors dial the newcomer and
// the endpoint returns ready to speak for the re-issued rank.
func Join(ctx context.Context, coordAddr string, opts JoinOptions) (*TCPEndpoint, error) {
	if opts.Bind == "" {
		opts.Bind = "127.0.0.1:0"
	}
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithTimeout(ctx, opts.Timeout)
	defer cancel()

	ln, err := net.Listen("tcp", opts.Bind)
	if err != nil {
		return nil, fmt.Errorf("transport: mesh listen %s: %w", opts.Bind, err)
	}
	meshAddr := ln.Addr().String()
	if opts.Advertise != "" {
		_, port, perr := net.SplitHostPort(meshAddr)
		if perr != nil {
			ln.Close()
			return nil, perr
		}
		meshAddr = net.JoinHostPort(opts.Advertise, port)
	}

	var d net.Dialer
	cc, err := d.DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: dial coordinator %s: %w", coordAddr, err)
	}
	tuneConn(cc)
	coord := &peerConn{conn: cc, bw: bufio.NewWriter(cc)}
	coordReader := bufio.NewReader(cc)
	deadline, _ := ctx.Deadline()
	if err := coord.write(deadline, frameHello, encodeString(nil, meshAddr)); err != nil {
		ln.Close()
		cc.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}

	cc.SetReadDeadline(deadline)
	typ, payload, err := readCoordFrame(coordReader, coord)
	if err != nil || (typ != frameAssign && typ != frameRejoinAssign) {
		ln.Close()
		cc.Close()
		return nil, fmt.Errorf("transport: waiting for assignment: type=%d err=%v", typ, err)
	}
	rejoining := typ == frameRejoinAssign
	rank, size, addrs, live, err := decodeAssign(payload, rejoining)
	if err != nil {
		ln.Close()
		cc.Close()
		return nil, err
	}
	if rejoining {
		logf("transport: rejoined as replacement rank %d of %d (mesh %s)", rank, size, meshAddr)
	} else {
		logf("transport: joined as rank %d of %d (mesh %s)", rank, size, meshAddr)
	}

	e := &TCPEndpoint{
		logf:      logf,
		coord:     coord,
		slots:     make([]*peerSlot, size),
		coordDead: make(chan struct{}),
		barrierCh: make(chan barrierRelease, 8),
	}
	e.core = core{link: e, rank: rank, size: size, cfg: &opConfig{}, sent: new(atomic.Int64)}
	e.slots[rank] = newPeerSlot(nil)

	if rejoining {
		err = e.assembleRejoinMesh(ctx, ln, live)
	} else {
		err = e.assembleMesh(ctx, ln, addrs)
	}
	if err != nil {
		ln.Close()
		cc.Close()
		return nil, err
	}
	ln.Close() // mesh complete; later rejoiners bind their own listeners

	// Confirm readiness and wait for the start signal (world-wide on a
	// fresh join, private on a rejoin).
	if err := coord.write(deadline, frameReady, nil); err != nil {
		e.abortConns()
		return nil, fmt.Errorf("transport: ready: %w", err)
	}
	typ, _, err = readCoordFrame(coordReader, coord)
	if err != nil || typ != frameStart {
		e.abortConns()
		return nil, fmt.Errorf("transport: waiting for start: type=%d err=%v", typ, err)
	}
	cc.SetReadDeadline(time.Time{})

	// The world is live: start the reader loops.
	for r := 0; r < size; r++ {
		if s := e.slots[r]; s != nil && s.pc != nil {
			go e.peerReadLoop(r, s)
		}
	}
	go e.coordReadLoop(coordReader)
	return e, nil
}

// readCoordFrame reads the next coordinator frame during the rendezvous,
// answering heartbeat pings inline — a rejoiner is pinged from the moment
// of admission, before it reaches its steady-state control loop.
func readCoordFrame(br *bufio.Reader, coord *peerConn) (byte, []byte, error) {
	for {
		typ, payload, err := readFrame(br)
		if err != nil || typ != framePing {
			return typ, payload, err
		}
		coord.write(time.Now().Add(5*time.Second), framePong, payload) //nolint:errcheck // loop surfaces conn errors
	}
}

// decodeAssign decodes a frameAssign, or — with wantLive — a
// frameRejoinAssign with its trailing survivor bitmap.
func decodeAssign(b []byte, wantLive bool) (rank, size int, addrs []string, live []bool, err error) {
	if len(b) < 8 {
		return 0, 0, nil, nil, fmt.Errorf("transport: truncated assignment")
	}
	rank = int(b[2])<<8 | int(b[3])
	size = int(b[6])<<8 | int(b[7])
	if size < 1 || rank < 0 || rank >= size {
		return 0, 0, nil, nil, fmt.Errorf("transport: bad assignment rank=%d size=%d", rank, size)
	}
	b = b[8:]
	addrs = make([]string, size)
	for i := 0; i < size; i++ {
		addrs[i], b, err = decodeString(b)
		if err != nil {
			return 0, 0, nil, nil, err
		}
	}
	if wantLive {
		if len(b) < size {
			return 0, 0, nil, nil, fmt.Errorf("transport: truncated rejoin live bitmap")
		}
		live = make([]bool, size)
		for i := 0; i < size; i++ {
			live[i] = b[i] != 0
		}
	}
	return rank, size, addrs, live, nil
}

// assembleMesh connects this rank to every peer: dial lower ranks, accept
// from higher ranks.
func (e *TCPEndpoint) assembleMesh(ctx context.Context, ln net.Listener, addrs []string) error {
	deadline, _ := ctx.Deadline()
	expect := e.size - 1 - e.rank // inbound connections from higher ranks
	acceptCh := acceptMeshConns(ln, deadline, expect)

	var d net.Dialer
	for r := 0; r < e.rank; r++ {
		conn, err := d.DialContext(ctx, "tcp", addrs[r])
		if err != nil {
			return fmt.Errorf("transport: dial rank %d at %s: %w", r, addrs[r], err)
		}
		tuneConn(conn)
		pc := &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
		hello := []byte{0, 0, byte(e.rank >> 8), byte(e.rank)}
		if err := pc.write(deadline, frameMeshHello, hello); err != nil {
			conn.Close()
			return fmt.Errorf("transport: mesh hello to rank %d: %w", r, err)
		}
		e.slots[r] = newPeerSlot(pc)
	}
	for i := 0; i < expect; i++ {
		select {
		case a := <-acceptCh:
			if a.err != nil {
				return a.err
			}
			if a.rank <= e.rank || a.rank >= e.size || e.slots[a.rank] != nil {
				a.pc.conn.Close()
				return fmt.Errorf("transport: unexpected mesh connection claiming rank %d", a.rank)
			}
			e.slots[a.rank] = newPeerSlot(a.pc)
		case <-ctx.Done():
			return fmt.Errorf("transport: mesh assembly: %w", ctx.Err())
		}
	}
	return nil
}

// assembleRejoinMesh accepts one mesh connection from every survivor; on a
// rejoin the dialing direction is survivors → newcomer regardless of rank
// order, so the newcomer only listens.
func (e *TCPEndpoint) assembleRejoinMesh(ctx context.Context, ln net.Listener, live []bool) error {
	deadline, _ := ctx.Deadline()
	expect := 0
	for r, l := range live {
		if l && r != e.rank {
			expect++
		}
	}
	acceptCh := acceptMeshConns(ln, deadline, expect)
	for i := 0; i < expect; i++ {
		select {
		case a := <-acceptCh:
			if a.err != nil {
				return a.err
			}
			if a.rank < 0 || a.rank >= e.size || a.rank == e.rank || !live[a.rank] || e.slots[a.rank] != nil {
				a.pc.conn.Close()
				return fmt.Errorf("transport: unexpected rejoin mesh connection claiming rank %d", a.rank)
			}
			e.slots[a.rank] = newPeerSlot(a.pc)
		case <-ctx.Done():
			return fmt.Errorf("transport: rejoin mesh assembly: %w", ctx.Err())
		}
	}
	// Ranks that were dead (or gone) when we rejoined stay failed until
	// they rejoin in turn.
	for r := 0; r < e.size; r++ {
		if r == e.rank || live[r] {
			continue
		}
		s := newPeerSlot(nil)
		s.failed.Store(true)
		close(s.failCh)
		e.slots[r] = s
	}
	return nil
}

// acceptMeshConns accepts expect mesh connections and resolves each
// dialer's claimed rank from its frameMeshHello.
type acceptedConn struct {
	rank int
	pc   *peerConn
	err  error
}

func acceptMeshConns(ln net.Listener, deadline time.Time, expect int) <-chan acceptedConn {
	acceptCh := make(chan acceptedConn, expect)
	if expect == 0 {
		return acceptCh
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	go func() {
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- acceptedConn{err: err}
				return
			}
			tuneConn(conn)
			br := bufio.NewReader(conn)
			conn.SetReadDeadline(deadline)
			typ, payload, err := readFrame(br)
			if err != nil || typ != frameMeshHello || len(payload) < 4 {
				conn.Close()
				acceptCh <- acceptedConn{err: fmt.Errorf("transport: bad mesh hello: type=%d err=%v", typ, err)}
				return
			}
			conn.SetReadDeadline(time.Time{})
			r := int(payload[2])<<8 | int(payload[3])
			acceptCh <- acceptedConn{rank: r, pc: &peerConn{conn: conn, bw: bufio.NewWriter(conn)}}
		}
	}()
	return acceptCh
}

// tuneConn disables Nagle. Liveness is the coordinator heartbeat's job
// (application-level framePing/framePong), not kernel keepalives: a hung
// process keeps its TCP connection healthy, so keepalives never fire for
// the failure mode that matters.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// peerReadLoop decodes frames from one peer incarnation into its inbox; a
// connection error without a clean local close marks that incarnation
// failed. The loop dies silently once its slot is retired by a rejoin.
func (e *TCPEndpoint) peerReadLoop(r int, s *peerSlot) {
	defer close(s.readEnd)
	br := bufio.NewReader(s.pc.conn)
	for {
		if s.failed.Load() {
			// Renewed per frame, so frames queued behind a full inbox
			// are still read however long the inbox takes to drain.
			s.pc.conn.SetReadDeadline(time.Now().Add(deadPeerGrace))
		}
		typ, payload, err := readFrame(br)
		if err != nil {
			if !e.closed.Load() {
				e.markSlotFailed(s)
			}
			return
		}
		if typ != frameData {
			e.logf("transport: rank %d sent unexpected frame type %d", r, typ)
			continue
		}
		msg, err := decodeFloats(payload)
		if err != nil {
			e.logf("transport: rank %d: %v", r, err)
			e.markSlotFailed(s)
			return
		}
		select {
		case s.inbox <- msg:
		case <-s.retired:
			return
		}
	}
}

// coordReadLoop handles control-plane frames for the life of the world.
func (e *TCPEndpoint) coordReadLoop(br *bufio.Reader) {
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if !e.closed.Load() {
				e.coordOnce.Do(func() { close(e.coordDead) })
			}
			return
		}
		switch typ {
		case frameBarrierRelease:
			if len(payload) >= 12 {
				rel := barrierRelease{
					seq:     beUint64(payload),
					nFailed: int(payload[10])<<8 | int(payload[11]),
				}
				select {
				case e.barrierCh <- rel:
				default: // stale release nobody is waiting for
				}
			}
		case framePeerFailed:
			if len(payload) >= 4 {
				e.markPeerFailed(int(payload[2])<<8 | int(payload[3]))
			}
		case framePing:
			if e.frozen.Load() {
				continue // simulated SIGSTOP: alive but unresponsive
			}
			e.coord.write(time.Now().Add(5*time.Second), framePong, payload) //nolint:errcheck // coord loss detected on read
		case framePeerJoined:
			if len(payload) < 4 {
				continue
			}
			r := int(payload[2])<<8 | int(payload[3])
			addr, _, err := decodeString(payload[4:])
			if err != nil {
				e.logf("transport: bad peer-joined frame: %v", err)
				continue
			}
			go e.dialRejoined(r, addr)
		}
	}
}

// dialRejoined connects to a replacement peer's mesh listener and installs
// the fresh incarnation.
func (e *TCPEndpoint) dialRejoined(r int, addr string) {
	if r < 0 || r >= e.size || r == e.rank || e.closed.Load() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rejoinDialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		e.logf("transport: dialing rejoined rank %d at %s: %v", r, addr, err)
		return
	}
	tuneConn(conn)
	pc := &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
	hello := []byte{0, 0, byte(e.rank >> 8), byte(e.rank)}
	if err := pc.write(time.Now().Add(rejoinDialTimeout), frameMeshHello, hello); err != nil {
		conn.Close()
		e.logf("transport: mesh hello to rejoined rank %d: %v", r, err)
		return
	}
	e.installPeer(r, pc)
	e.logf("transport: rank %d rejoined; mesh connection re-established", r)
}

// installPeer atomically replaces rank r's incarnation with a fresh slot
// over pc, retiring the old one: its reader loop stops delivering, its
// buffered frames are dropped, and its failure state is forgotten.
func (e *TCPEndpoint) installPeer(r int, pc *peerConn) {
	ns := newPeerSlot(pc)
	e.pmu.Lock()
	old := e.slots[r]
	e.slots[r] = ns
	e.pmu.Unlock()
	if old != nil {
		close(old.retired)
		if old.pc != nil {
			abort(old.pc.conn)
		}
	}
	e.rejoins.Add(1)
	go e.peerReadLoop(r, ns)
}

// markSlotFailed records a permanent death of one peer incarnation and
// wakes its waiters; stale reports about a retired incarnation are ignored.
func (e *TCPEndpoint) markSlotFailed(s *peerSlot) {
	if s == nil {
		return
	}
	if s.failed.CompareAndSwap(false, true) {
		close(s.failCh)
		if s.pc != nil {
			s.pc.conn.SetReadDeadline(time.Now().Add(deadPeerGrace))
		}
	}
}

// markPeerFailed fails rank r's current incarnation.
func (e *TCPEndpoint) markPeerFailed(r int) {
	if r < 0 || r >= e.size || r == e.rank {
		return
	}
	e.markSlotFailed(e.slot(r))
}

// PeerFailed reports whether rank r's current incarnation is known dead.
func (e *TCPEndpoint) PeerFailed(r int) bool { return e.slot(r).failed.Load() }

// Rejoins returns how many replacement peers this endpoint has installed.
func (e *TCPEndpoint) Rejoins() int64 { return e.rejoins.Load() }

func (e *TCPEndpoint) selfFailed() bool { return e.slot(e.rank).failed.Load() }

// crash enacts an injected crash: Kill closes every connection abruptly,
// so peers observe the same wire signature as a killed process.
func (e *TCPEndpoint) crash() { e.Kill() }

// Kill abruptly terminates this endpoint without a goodbye: every
// connection is closed with a zero linger (RST on most stacks), which is
// the closest a live process gets to its own kill -9. Peers observe
// ErrPeerFailed; the coordinator marks the rank failed. Used by injected
// crashes and by chaos tests. As for a killed process, frames the peer's
// kernel has not received when the connection resets are lost (the zero
// linger discards unsent data); frames it has received are still read and
// delivered before the peer's RecvCtx reports the failure.
func (e *TCPEndpoint) Kill() {
	e.slot(e.rank).failed.Store(true)
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.pmu.Lock()
		slots := append([]*peerSlot(nil), e.slots...)
		e.pmu.Unlock()
		for _, s := range slots {
			if s != nil && s.pc != nil {
				abort(s.pc.conn)
			}
		}
		abort(e.coord.conn)
	})
	// From the killed endpoint's own perspective every peer is now
	// unreachable; waking its blocked operations immediately keeps
	// in-process death simulations from hanging until the op timeout.
	for r := 0; r < e.size; r++ {
		if r != e.rank {
			e.markPeerFailed(r)
		}
	}
}

func abort(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// Close announces a clean departure to the coordinator and closes every
// connection. Safe to call more than once.
func (e *TCPEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		err = e.coord.write(time.Now().Add(5*time.Second), frameGoodbye, nil)
		e.pmu.Lock()
		slots := append([]*peerSlot(nil), e.slots...)
		e.pmu.Unlock()
		for _, s := range slots {
			if s != nil && s.pc != nil {
				s.pc.conn.Close()
			}
		}
		e.coord.conn.Close()
	})
	return err
}

// SendCtx delivers data to dst or returns an error, with the chan
// backend's semantics, including fault injection by send sequence number.
func (e *TCPEndpoint) SendCtx(ctx context.Context, dst int, data []float64) error {
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
	s := e.slot(dst)
	if s.failed.Load() {
		return fmt.Errorf("%w: send to rank %d", ErrPeerFailed, dst)
	}
	if dst == e.rank {
		cp := make([]float64, len(data))
		copy(cp, data)
		select {
		case s.inbox <- cp:
			e.sent.Add(int64(8 * len(data)))
			return nil
		case <-opCtx.Done():
			return mapCtxErr(ctx, "send", dst)
		}
	}
	deadline, _ := opCtx.Deadline() // zero, so no socket deadline, when unbounded
	if err := s.pc.write(deadline, frameData, encodeFloats(data)); err != nil {
		if opCtx.Err() != nil {
			return mapCtxErr(ctx, "send", dst)
		}
		e.markSlotFailed(s)
		return fmt.Errorf("%w: send to rank %d: %v", ErrPeerFailed, dst, err)
	}
	e.sent.Add(int64(8 * len(data)))
	return nil
}

// RecvCtx returns the next message from src, draining frames that arrived
// before a peer death, or ErrPeerFailed once src is dead and drained. A
// peer declared dead while its connection stays open (a hung process) is
// reported deadPeerGrace after the declaration.
func (e *TCPEndpoint) RecvCtx(ctx context.Context, src int) ([]float64, error) {
	if err := e.checkPeer("recv from", src); err != nil {
		return nil, err
	}
	if err := e.checkFaults(); err != nil {
		return nil, err
	}
	e.recvSeq++
	s := e.slot(src)
	select {
	case msg := <-s.inbox:
		return msg, nil
	default:
	}
	opCtx, cancel := e.opCtx(ctx)
	defer cancel()
	var failCh <-chan struct{}
	if src != e.rank {
		failCh = s.failCh
	}
	select {
	case msg := <-s.inbox:
		return msg, nil
	case <-failCh:
		// The coordinator's notice of src's death can overtake src's last
		// frames on the mesh connection, so src counts as failed only once
		// its read loop has returned (at the connection's end, or
		// deadPeerGrace after the notice) or the operation times out, and
		// the inbox is drained once more.
		select {
		case msg := <-s.inbox:
			return msg, nil
		case <-s.readEnd:
		case <-opCtx.Done():
		}
		select {
		case msg := <-s.inbox:
			return msg, nil
		default:
		}
		return nil, fmt.Errorf("%w: recv from rank %d", ErrPeerFailed, src)
	case <-opCtx.Done():
		return nil, mapCtxErr(ctx, "recv", src)
	}
}

// BarrierCtx blocks until every live rank has entered the barrier. If any
// rank in the world has failed, the release reports it and BarrierCtx
// returns ErrPeerFailed — the prompt-detection analogue of the chan
// backend's timeout-based dead-rank discovery.
func (e *TCPEndpoint) BarrierCtx(ctx context.Context) error {
	if err := e.checkFaults(); err != nil {
		return err
	}
	e.barrierSeq++
	seq := e.barrierSeq
	opCtx, cancel := e.opCtx(ctx)
	defer cancel()
	var payload [8]byte
	putUint64(payload[:], seq)
	deadline, _ := opCtx.Deadline()
	if err := e.coord.write(deadline, frameBarrierEnter, payload[:]); err != nil {
		return fmt.Errorf("%w: barrier (coordinator unreachable): %v", ErrPeerFailed, err)
	}
	for {
		select {
		case rel := <-e.barrierCh:
			if rel.seq < seq {
				continue // stale release from an abandoned barrier
			}
			if rel.nFailed > 0 {
				return fmt.Errorf("%w: barrier released with %d failed ranks", ErrPeerFailed, rel.nFailed)
			}
			return nil
		case <-e.coordDead:
			return fmt.Errorf("%w: barrier (coordinator lost)", ErrPeerFailed)
		case <-opCtx.Done():
			return mapCtxErr(ctx, "barrier", -1)
		}
	}
}

// abortConns tears down a partially joined endpoint.
func (e *TCPEndpoint) abortConns() {
	for _, s := range e.slots {
		if s != nil && s.pc != nil {
			s.pc.conn.Close()
		}
	}
	e.coord.conn.Close()
}

var _ Endpoint = (*TCPEndpoint)(nil)
var _ Rejoinable = (*TCPEndpoint)(nil)
