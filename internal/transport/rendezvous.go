package transport

// Rendezvous coordinator of the TCP backend. Workers join a world by
// dialing the coordinator; the coordinator assigns ranks in join order,
// exchanges the workers' mesh listen addresses, and then stays up for the
// life of the job serving three control-plane duties:
//
//   - barriers: a worker enters a barrier by sending frameBarrierEnter;
//     when every live rank has entered, the coordinator broadcasts
//     frameBarrierRelease carrying the count of failed ranks (a non-zero
//     count turns the waiters' BarrierCtx into ErrPeerFailed);
//   - failure detection: a worker connection that drops without a
//     frameGoodbye marks the rank permanently failed — the kill -9 path —
//     and the coordinator broadcasts framePeerFailed so every surviving
//     worker observes the death even without direct traffic to it. On top
//     of connection loss, an application-level heartbeat (framePing /
//     framePong every HeartbeatInterval) catches ranks that are hung but
//     still connected — a SIGSTOPed or livelocked process holds its TCP
//     connection open indefinitely, which kernel keepalives never flag —
//     and declares them dead after HeartbeatTimeout without a reply;
//   - elastic rejoin: once the world has started, a new worker dialing in
//     is admitted as the replacement for the lowest failed rank. The
//     coordinator re-issues that rank id with a frameRejoinAssign carrying
//     the survivor map, broadcasts framePeerJoined so every survivor dials
//     the newcomer's mesh listener, and replies frameStart to the
//     newcomer's frameReady once its mesh is assembled. Application-layer
//     recovery (shipping the dead rank's state to the replacement) is the
//     leader's job — see rewl.RunDistributed.
//
// The coordinator carries no data-plane traffic: point-to-point sends and
// the collectives built on them flow over the worker↔worker mesh.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator is the rendezvous and control-plane server of one TCP world.
type Coordinator struct {
	ln         net.Listener
	size       int
	logf       func(format string, args ...any)
	hbInterval time.Duration
	hbTimeout  time.Duration

	mu       sync.Mutex
	workers  []*coordWorker // by rank, nil until joined
	addrs    []string       // mesh addresses, by rank
	joined   int            // occupied rank slots
	readySet map[int]bool   // ranks that confirmed mesh assembly (initial start)
	started  bool
	assigned bool // initial rank/address assignment has been broadcast
	rejoins  int
	failed   map[int]bool
	departed map[int]bool
	entered  map[int]bool // current barrier generation
	baSeq    uint64
	done     chan struct{} // closed when every rank has departed or failed
	closed   bool
}

// coordWorker is the coordinator's handle on one joined worker.
type coordWorker struct {
	conn     net.Conn
	wmu      sync.Mutex
	bw       *bufio.Writer
	lastPong atomic.Int64 // unix nanos of the last heartbeat reply
}

func (w *coordWorker) write(typ byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := writeFrame(w.bw, typ, payload); err != nil {
		return err
	}
	return w.bw.Flush()
}

// CoordinatorOptions tunes the coordinator beyond the world size.
type CoordinatorOptions struct {
	// HeartbeatInterval is the framePing period once the world has started
	// (default 2s; negative disables the heartbeat entirely).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a rank may go without a framePong before
	// it is declared dead (default 20s). It bounds how long a hung-but-
	// connected rank can stall the world before the rejoin path can fire.
	HeartbeatTimeout time.Duration
	// Logf receives progress lines (default discards).
	Logf func(format string, args ...any)
}

// NewCoordinator starts a rendezvous coordinator for a world of size ranks
// listening on addr (host:port; port 0 picks a free port) with default
// options. It serves in the background; use Addr to learn the bound
// address and Wait to block until the job ends.
func NewCoordinator(addr string, size int) (*Coordinator, error) {
	return NewCoordinatorOpts(addr, size, CoordinatorOptions{})
}

// NewCoordinatorOpts is NewCoordinator with explicit options.
func NewCoordinatorOpts(addr string, size int, opts CoordinatorOptions) (*Coordinator, error) {
	if size < 1 {
		return nil, fmt.Errorf("transport: world size must be positive, got %d", size)
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 2 * time.Second
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = 20 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: coordinator listen %s: %w", addr, err)
	}
	co := &Coordinator{
		ln:         ln,
		size:       size,
		logf:       func(string, ...any) {},
		hbInterval: opts.HeartbeatInterval,
		hbTimeout:  opts.HeartbeatTimeout,
		workers:    make([]*coordWorker, size),
		addrs:      make([]string, size),
		readySet:   make(map[int]bool),
		failed:     make(map[int]bool),
		departed:   make(map[int]bool),
		entered:    make(map[int]bool),
		done:       make(chan struct{}),
	}
	if opts.Logf != nil {
		co.logf = opts.Logf
	}
	go co.acceptLoop()
	if co.hbInterval > 0 {
		go co.heartbeatLoop()
	}
	return co, nil
}

// Addr returns the coordinator's bound address.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Rejoins returns how many replacement workers have been admitted.
func (co *Coordinator) Rejoins() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.rejoins
}

// Wait blocks until every rank has departed (clean goodbye) or failed, or
// ctx is cancelled. It returns the ranks that failed; a non-empty list
// with a nil error means the job ended degraded but ended.
func (co *Coordinator) Wait(ctx context.Context) ([]int, error) {
	select {
	case <-co.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	var failed []int
	for r := 0; r < co.size; r++ {
		if co.failed[r] {
			failed = append(failed, r)
		}
	}
	return failed, nil
}

// Close shuts the coordinator down, closing the listener and all worker
// connections.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	co.closed = true
	workers := append([]*coordWorker(nil), co.workers...)
	co.mu.Unlock()
	err := co.ln.Close()
	for _, w := range workers {
		if w != nil {
			w.conn.Close()
		}
	}
	return err
}

func (co *Coordinator) acceptLoop() {
	for {
		conn, err := co.ln.Accept()
		if err != nil {
			co.mu.Lock()
			closed := co.closed
			co.mu.Unlock()
			if !closed {
				co.logf("coordinator: accept: %v", err)
			}
			return
		}
		go co.handshake(conn)
	}
}

// handshake reads a worker's hello and assigns it a rank: the lowest free
// slot before the world starts, or — once the world is running — the
// lowest failed rank, making the newcomer that rank's replacement.
func (co *Coordinator) handshake(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReader(conn)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHello {
		co.logf("coordinator: bad hello from %s: type=%d err=%v", conn.RemoteAddr(), typ, err)
		conn.Close()
		return
	}
	meshAddr, _, err := decodeString(payload)
	if err != nil {
		co.logf("coordinator: bad hello payload from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}

	co.mu.Lock()
	if co.started {
		co.admitRejoinLocked(conn, br, meshAddr)
		return
	}
	rank := -1
	for r := 0; r < co.size; r++ {
		if co.workers[r] == nil && !co.failed[r] {
			rank = r
			break
		}
	}
	if rank < 0 {
		co.mu.Unlock()
		co.logf("coordinator: rejecting extra worker %s (world of %d is full)", conn.RemoteAddr(), co.size)
		conn.Close()
		return
	}
	co.joined++
	w := &coordWorker{conn: conn, bw: bufio.NewWriter(conn)}
	co.workers[rank] = w
	co.addrs[rank] = meshAddr
	complete := co.joined == co.size
	var assign []byte
	if complete {
		co.assigned = true
		assign = co.encodeAssignLocked()
	}
	co.mu.Unlock()

	co.logf("coordinator: rank %d joined from %s (mesh %s)", rank, conn.RemoteAddr(), meshAddr)
	if complete {
		co.mu.Lock()
		workers := append([]*coordWorker(nil), co.workers...)
		co.mu.Unlock()
		for r, wk := range workers {
			msg := make([]byte, len(assign))
			copy(msg, assign)
			// Patch in the receiver's rank (first 4 bytes).
			msg[0], msg[1], msg[2], msg[3] = 0, 0, byte(r>>8), byte(r)
			if err := wk.write(frameAssign, msg); err != nil {
				co.logf("coordinator: assign to rank %d: %v", r, err)
			}
		}
		co.logf("coordinator: world of %d assembled", co.size)
	}
	go co.serveWorker(rank, w, br, false)
}

// admitRejoinLocked (called with co.mu held; releases it) admits a worker
// that dialed in after the world started as the replacement for the lowest
// failed rank, re-brokers the mesh, and tells the survivors to dial it.
func (co *Coordinator) admitRejoinLocked(conn net.Conn, br *bufio.Reader, meshAddr string) {
	rank := -1
	for r := 0; r < co.size; r++ {
		if co.failed[r] && !co.departed[r] {
			rank = r
			break
		}
	}
	if rank < 0 {
		co.mu.Unlock()
		co.logf("coordinator: rejecting worker %s (world running, no failed rank to replace)", conn.RemoteAddr())
		conn.Close()
		return
	}
	old := co.workers[rank]
	w := &coordWorker{conn: conn, bw: bufio.NewWriter(conn)}
	w.lastPong.Store(time.Now().UnixNano())
	co.workers[rank] = w
	co.addrs[rank] = meshAddr
	delete(co.failed, rank)
	delete(co.entered, rank) // a stale barrier arrival must not speak for the newcomer
	co.rejoins++
	assign := co.encodeRejoinAssignLocked(rank)
	type survivor struct {
		rank int
		w    *coordWorker
	}
	var survivors []survivor
	for r := 0; r < co.size; r++ {
		if r == rank || co.workers[r] == nil || co.failed[r] || co.departed[r] {
			continue
		}
		survivors = append(survivors, survivor{r, co.workers[r]})
	}
	co.mu.Unlock()

	if old != nil {
		// Fence the dead incarnation: if the old process is merely hung
		// (heartbeat death), closing its control connection makes sure it
		// can never speak for this rank again.
		abort(old.conn)
	}
	co.logf("coordinator: rank %d rejoined from %s (mesh %s), replacing failed worker", rank, conn.RemoteAddr(), meshAddr)
	if err := w.write(frameRejoinAssign, assign); err != nil {
		co.logf("coordinator: rejoin assign to rank %d: %v", rank, err)
		co.failRank(rank, w)
		return
	}
	joined := encodeString([]byte{0, 0, byte(rank >> 8), byte(rank)}, meshAddr)
	for _, s := range survivors {
		if err := s.w.write(framePeerJoined, joined); err != nil {
			co.logf("coordinator: peer-joined notice to rank %d: %v", s.rank, err)
		}
	}
	go co.serveWorker(rank, w, br, true)
}

// encodeAssignLocked builds the assignment payload with a placeholder rank.
func (co *Coordinator) encodeAssignLocked() []byte {
	b := make([]byte, 0, 8+16*co.size)
	b = append(b, 0, 0, 0, 0) // rank, patched per receiver
	b = append(b, 0, 0, byte(co.size>>8), byte(co.size))
	for _, a := range co.addrs {
		b = encodeString(b, a)
	}
	return b
}

// encodeRejoinAssignLocked builds a replacement's assignment: its rank, the
// world size, every rank's mesh address, and a live bitmap naming the
// survivors that will dial the newcomer.
func (co *Coordinator) encodeRejoinAssignLocked(rank int) []byte {
	b := make([]byte, 0, 8+17*co.size)
	b = append(b, 0, 0, byte(rank>>8), byte(rank))
	b = append(b, 0, 0, byte(co.size>>8), byte(co.size))
	for _, a := range co.addrs {
		b = encodeString(b, a)
	}
	for r := 0; r < co.size; r++ {
		live := byte(0)
		if r != rank && co.workers[r] != nil && !co.failed[r] && !co.departed[r] {
			live = 1
		}
		b = append(b, live)
	}
	return b
}

// serveWorker is the per-worker control loop: readiness, barriers, pongs,
// goodbye, and failure detection on connection error. rejoined workers get
// a private frameStart instead of gating the world-wide one.
func (co *Coordinator) serveWorker(rank int, w *coordWorker, br *bufio.Reader, rejoined bool) {
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			co.mu.Lock()
			gone := co.departed[rank] || co.closed || co.workers[rank] != w
			if !gone && !co.assigned {
				// Mid-handshake death: the rank was never announced to any
				// peer, so release the slot for a later joiner instead of
				// failing the world.
				co.workers[rank] = nil
				co.addrs[rank] = ""
				delete(co.readySet, rank)
				co.joined--
				co.mu.Unlock()
				co.logf("coordinator: rank %d died during rendezvous (%v); releasing its slot", rank, err)
				return
			}
			co.mu.Unlock()
			if !gone {
				co.logf("coordinator: rank %d connection lost: %v", rank, err)
				co.failRank(rank, w)
			}
			return
		}
		switch typ {
		case frameReady:
			if rejoined {
				if err := w.write(frameStart, nil); err != nil {
					co.logf("coordinator: restart to rank %d: %v", rank, err)
				}
				continue
			}
			co.mu.Lock()
			co.readySet[rank] = true
			start := len(co.readySet) == co.size && !co.started
			if start {
				co.started = true
			}
			workers := append([]*coordWorker(nil), co.workers...)
			co.mu.Unlock()
			if start {
				now := time.Now().UnixNano()
				for r, wk := range workers {
					wk.lastPong.Store(now)
					if err := wk.write(frameStart, nil); err != nil {
						co.logf("coordinator: start to rank %d: %v", r, err)
					}
				}
			}
		case framePong:
			w.lastPong.Store(time.Now().UnixNano())
		case frameBarrierEnter:
			var seq uint64
			if len(payload) >= 8 {
				seq = beUint64(payload)
			}
			co.barrierEnter(rank, seq)
		case frameGoodbye:
			co.mu.Lock()
			if co.workers[rank] != w {
				co.mu.Unlock()
				return // stale incarnation; the replacement owns the rank now
			}
			co.departed[rank] = true
			co.mu.Unlock()
			co.logf("coordinator: rank %d departed cleanly", rank)
			// A departed rank no longer gates barriers.
			co.checkBarrier()
			co.checkDone()
			return
		default:
			co.logf("coordinator: rank %d sent unexpected frame type %d", rank, typ)
		}
	}
}

// heartbeatLoop pings every started worker each interval and declares dead
// any rank silent for longer than the heartbeat timeout — catching hung
// processes whose TCP connections stay open.
func (co *Coordinator) heartbeatLoop() {
	t := time.NewTicker(co.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-co.done:
			return
		case <-t.C:
		}
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			return
		}
		if !co.started {
			co.mu.Unlock()
			continue
		}
		type probe struct {
			rank int
			w    *coordWorker
		}
		var live, stale []probe
		now := time.Now()
		for r := 0; r < co.size; r++ {
			w := co.workers[r]
			if w == nil || co.failed[r] || co.departed[r] {
				continue
			}
			if now.Sub(time.Unix(0, w.lastPong.Load())) > co.hbTimeout {
				stale = append(stale, probe{r, w})
			} else {
				live = append(live, probe{r, w})
			}
		}
		co.mu.Unlock()
		for _, p := range stale {
			co.logf("coordinator: rank %d heartbeat timed out (silent > %v); declaring it dead", p.rank, co.hbTimeout)
			abort(p.w.conn) // fence the hung process
			co.failRank(p.rank, p.w)
		}
		var seq [8]byte
		putUint64(seq[:], uint64(now.UnixNano()))
		for _, p := range live {
			if err := p.w.write(framePing, seq[:]); err != nil {
				co.failRank(p.rank, p.w)
			}
		}
	}
}

// failRank marks a rank permanently failed, tells the survivors, and
// releases any barrier the dead rank was gating. w names the incarnation
// being failed: a stale report about an already-replaced worker is ignored.
func (co *Coordinator) failRank(rank int, w *coordWorker) {
	co.mu.Lock()
	if co.failed[rank] || (w != nil && co.workers[rank] != w) {
		co.mu.Unlock()
		return
	}
	co.failed[rank] = true
	workers := append([]*coordWorker(nil), co.workers...)
	co.mu.Unlock()
	payload := []byte{0, 0, byte(rank >> 8), byte(rank)}
	for r, wk := range workers {
		if r == rank || wk == nil {
			continue
		}
		if err := wk.write(framePeerFailed, payload); err != nil {
			co.logf("coordinator: peer-failed notice to rank %d: %v", r, err)
		}
	}
	co.checkBarrier()
	co.checkDone()
}

// barrierEnter records an arrival and releases the generation when every
// live rank has entered.
func (co *Coordinator) barrierEnter(rank int, seq uint64) {
	co.mu.Lock()
	co.entered[rank] = true
	if seq > co.baSeq {
		co.baSeq = seq
	}
	co.mu.Unlock()
	co.checkBarrier()
}

// checkBarrier releases the pending barrier generation if every rank that
// can still arrive has arrived.
func (co *Coordinator) checkBarrier() {
	co.mu.Lock()
	waiting := 0
	for r := 0; r < co.size; r++ {
		if co.failed[r] || co.departed[r] {
			continue
		}
		if !co.entered[r] {
			co.mu.Unlock()
			return
		}
		waiting++
	}
	if waiting == 0 {
		co.mu.Unlock()
		return
	}
	nFailed := len(co.failed)
	seq := co.baSeq
	var release []*coordWorker
	for r := 0; r < co.size; r++ {
		if co.entered[r] && !co.failed[r] && !co.departed[r] {
			release = append(release, co.workers[r])
		}
		delete(co.entered, r)
	}
	co.mu.Unlock()

	payload := make([]byte, 12)
	putUint64(payload, seq)
	payload[8], payload[9], payload[10], payload[11] = 0, 0, byte(nFailed>>8), byte(nFailed)
	for _, wk := range release {
		if err := wk.write(frameBarrierRelease, payload); err != nil {
			co.logf("coordinator: barrier release: %v", err)
		}
	}
}

// checkDone closes done once every rank has departed or failed.
func (co *Coordinator) checkDone() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.joined < co.size {
		return
	}
	for r := 0; r < co.size; r++ {
		if !co.departed[r] && !co.failed[r] {
			return
		}
	}
	select {
	case <-co.done:
	default:
		close(co.done)
	}
}

func beUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
