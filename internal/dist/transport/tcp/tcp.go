// Package tcp is the multi-process Transport: a full mesh of
// length-prefixed TCP links between N processes, each hosting a
// contiguous range of the cluster's R ranks. Frames are the wire
// package's header + raw store records, so a staged batch buffer is
// serialized straight onto the socket with no intermediate
// representation — the paper's MPI deployment shape with the link layer
// swapped for TCP.
//
// A process keeps one persistent Node (listener, handshake, connection
// parking) for its lifetime and builds one attempt-scoped Transport per
// run attempt. Connections handshake with protocol version (checked on
// every frame by the wire codec), plan hash and epoch; a mismatched
// peer is refused loudly. A dialer whose epoch is ahead of the acceptor
// is parked until the acceptor's process reaches that attempt — the ack
// is deferred until the local Transport claims the connection — which
// is how a respawned worker and its survivors agree on the recovery
// epoch without a shared clock.
//
// Collectives are hierarchical: local ranks combine in-process (the
// same generation-channel barrier the chan transport uses), then proc 0
// runs a star reduce over the mesh (KindReduce in, KindRelease out,
// sequence-numbered so attempts' collectives cannot interleave).
package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/wire"
	"kronlab/internal/graph"
)

// handshake purposes, carried in the Hello payload's first byte.
const (
	purposeData = 1 // attempt-scoped data link between two procs
	purposeCtrl = 2 // persistent control link, worker → head
)

// ack statuses, carried in the Ack payload's first byte.
const (
	ackOK       = 0
	ackBadPlan  = 1
	ackRejected = 2
)

// helloPayloadLen is purpose (1) + plan hash (8).
const helloPayloadLen = 9

// outQDepth is the per-link writer queue, in frames. Deep enough that a
// burst of flushes from every local rank doesn't serialize on the
// socket; bounded so a stalled peer exerts backpressure instead of
// buffering the whole exchange in memory.
const outQDepth = 256

// inboxDepth mirrors the chan transport's per-rank buffering.
func inboxDepth(r int) int { return 4*r + 16 }

// framePool recycles encoded frame buffers between SendBatch and the
// link writers.
var framePool = sync.Pool{New: func() any { return []byte(nil) }}

// ErrHandshake wraps every handshake refusal so both sides fail loudly
// and identifiably.
var ErrHandshake = errors.New("tcp: handshake refused")

// Config describes one process's place in the static cluster.
type Config struct {
	// Procs is the cluster layout — identical on every process (the plan
	// hash guards against drift in everything the layout derives from).
	Procs []transport.Proc
	// Self is this process's index in Procs.
	Self int
	// PlanHash fingerprints the generation plan (factors, decomposition,
	// rank count). Peers with different hashes refuse each other.
	PlanHash uint64
	// Pool recycles decoded batch buffers; nil allocates per batch.
	Pool transport.BufferPool
	// Faults, when non-nil, arms wire-level fault injection (see
	// transport.TCPFaults). Shared across attempts so frame countdowns
	// fire once per process lifetime.
	Faults *FaultState
	// DialTimeout bounds mesh establishment per attempt; ≤ 0 means 10s.
	// It also drives the per-connection dial and handshake-read deadlines,
	// so a slow network widens every timeout together instead of tripping
	// over a hardcoded one.
	DialTimeout time.Duration
	// HeartbeatInterval is how often each link sends an application-level
	// ping when otherwise idle; ≤ 0 disables heartbeats (and with them
	// deadline-based failure detection).
	HeartbeatInterval time.Duration
	// HeartbeatDeadline is the longest a link may stay silent before the
	// peer is declared dead with a PeerError. ≤ 0 with a positive interval
	// means 5× the interval.
	HeartbeatDeadline time.Duration
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 10 * time.Second
}

func (c Config) heartbeatDeadline() time.Duration {
	if c.HeartbeatDeadline > 0 {
		return c.HeartbeatDeadline
	}
	return 5 * c.HeartbeatInterval
}

// FaultState is an armed transport.TCPFaults schedule with its lifetime
// frame counter — process-wide across links and attempts, so a schedule
// is deterministic in the number of batch frames written, regardless of
// how traffic interleaves across peers.
type FaultState struct {
	plan        transport.TCPFaults
	frames      int64
	partitioned atomic.Bool
}

// NewFaultState arms a schedule.
func NewFaultState(plan transport.TCPFaults) *FaultState { return &FaultState{plan: plan} }

// Partition black-holes the process immediately: sockets stay open, but
// from now on outbound frames are discarded and inbound frames dropped.
// The scheduled form is TCPFaults.PartitionAfterFrames.
func (f *FaultState) Partition() { f.partitioned.Store(true) }

// Partitioned reports whether the black-hole is active.
func (f *FaultState) Partitioned() bool { return f.partitioned.Load() }

// errInjectedReset tags a fault-injected link death so tests can tell it
// from a real one.
var errInjectedReset = errors.New("tcp: injected connection reset")

// key identifies a parked inbound data connection.
type key struct {
	from  int
	epoch int64
}

// parkedConn is an accepted, handshake-validated data connection
// awaiting its Claim.
type parkedConn struct {
	conn net.Conn
	br   *bufio.Reader // may hold bytes read past the Hello
}

// Node is a process's persistent listening endpoint: it owns the
// listener, validates every inbound handshake, parks data connections
// by (peer, epoch) until the matching attempt claims them, and hands
// control connections to the head's accept loop.
type Node struct {
	ln       net.Listener
	self     int
	planHash uint64

	// hsTimeout bounds how long an accepted connection may take to
	// present its Hello, in nanoseconds (atomic: Connect derives it from
	// Config.DialTimeout while the accept loop reads it).
	hsTimeout atomic.Int64

	mu      sync.Mutex
	parked  map[key]parkedConn
	waiters map[key]chan parkedConn
	closed  bool

	ctrl chan *CtrlConn
}

// NewNode listens on addr and starts the accept loop.
func NewNode(addr string, self int, planHash uint64) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	n := &Node{ln: ln, self: self, planHash: planHash,
		parked:  make(map[key]parkedConn),
		waiters: make(map[key]chan parkedConn),
		ctrl:    make(chan *CtrlConn, 16)}
	n.hsTimeout.Store(int64(10 * time.Second))
	go n.acceptLoop()
	return n, nil
}

// SetHandshakeTimeout bounds how long an inbound connection may take to
// present its Hello. Connect calls this with the config's dial timeout
// so both sides of the handshake honor the same deadline.
func (n *Node) SetHandshakeTimeout(d time.Duration) {
	if d > 0 {
		n.hsTimeout.Store(int64(d))
	}
}

// Addr returns the bound listen address (useful with ":0" test configs).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close shuts the listener and every parked connection.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	for k, p := range n.parked {
		p.conn.Close()
		delete(n.parked, k)
	}
	n.mu.Unlock()
	return n.ln.Close()
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go n.handshake(conn)
	}
}

// handshake validates one inbound connection's Hello. Version skew is
// caught by the wire codec's header parse; a plan-hash mismatch is
// refused with an explicit Ack so the dialer fails loudly too.
func (n *Node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(time.Duration(n.hsTimeout.Load())))
	br := bufio.NewReaderSize(conn, 1<<16)
	h, payload, err := readFrame(br)
	if err != nil || h.Kind != wire.KindHello || len(payload) < helloPayloadLen {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	purpose := payload[0]
	hash := binary.LittleEndian.Uint64(payload[1:])
	if hash != n.planHash {
		writeAck(conn, n.self, int(h.From), 0, ackBadPlan,
			fmt.Sprintf("plan hash %016x, want %016x", hash, n.planHash))
		conn.Close()
		return
	}
	switch purpose {
	case purposeCtrl:
		if err := writeAck(conn, n.self, int(h.From), h.Epoch, ackOK, ""); err != nil {
			conn.Close()
			return
		}
		cc := newCtrlConn(conn, br, n.self, int(h.From))
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		n.ctrl <- cc
	case purposeData:
		k := key{from: int(h.From), epoch: h.Epoch}
		p := parkedConn{conn: conn, br: br}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		if w, ok := n.waiters[k]; ok {
			delete(n.waiters, k)
			n.mu.Unlock()
			w <- p
			return
		}
		if old, ok := n.parked[k]; ok {
			old.conn.Close() // superseded by a redial
		}
		n.parked[k] = p
		n.mu.Unlock()
	default:
		conn.Close()
	}
}

// claim waits for the inbound data connection from proc `from` for the
// given epoch, then sends the deferred Ack that releases the dialer.
// Parked connections from earlier epochs belong to dead attempts and
// are closed as they are superseded (handshake parks by exact key, so
// they simply never match).
func (n *Node) claim(ctx context.Context, from int, epoch int64) (parkedConn, error) {
	k := key{from: from, epoch: epoch}
	n.mu.Lock()
	if p, ok := n.parked[k]; ok {
		delete(n.parked, k)
		n.mu.Unlock()
		if err := writeAck(p.conn, n.self, from, epoch, ackOK, ""); err != nil {
			p.conn.Close()
			return parkedConn{}, err
		}
		return p, nil
	}
	ch := make(chan parkedConn, 1)
	n.waiters[k] = ch
	n.mu.Unlock()
	select {
	case p := <-ch:
		if err := writeAck(p.conn, n.self, from, epoch, ackOK, ""); err != nil {
			p.conn.Close()
			return parkedConn{}, err
		}
		return p, nil
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.waiters, k)
		n.mu.Unlock()
		select {
		case p := <-ch: // raced: arrived as we withdrew
			p.conn.Close()
		default:
		}
		return parkedConn{}, fmt.Errorf("tcp: waiting for proc %d (epoch %d): %w", from, epoch, context.Cause(ctx))
	}
}

// AcceptControl returns the next inbound control connection (head use).
func (n *Node) AcceptControl(ctx context.Context) (*CtrlConn, error) {
	select {
	case cc := <-n.ctrl:
		return cc, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// dialPeer establishes one outbound connection with retry (the peer may
// not be listening yet) and runs the dialer side of the handshake. The
// Ack may be deferred arbitrarily long — until the peer reaches this
// epoch — so only ctx bounds the wait.
func dialPeer(ctx context.Context, addr string, self, to int, epoch int64, planHash uint64, purpose byte, faults *FaultState, dialTimeout time.Duration) (net.Conn, *bufio.Reader, error) {
	if faults != nil && faults.plan.DialDelay > 0 {
		select {
		case <-time.After(faults.plan.DialDelay):
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
	}
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	var conn net.Conn
	for backoff := 10 * time.Millisecond; ; {
		d := net.Dialer{Timeout: dialTimeout}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			conn = c
			break
		}
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("tcp: dialing proc %d at %s: %w", to, addr, context.Cause(ctx))
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("tcp: dialing proc %d at %s: %w", to, addr, context.Cause(ctx))
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	var payload [helloPayloadLen]byte
	payload[0] = purpose
	binary.LittleEndian.PutUint64(payload[1:], planHash)
	if err := writeSmallFrame(conn, wire.KindHello, self, to, epoch, 0, payload[:]); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	h, ack, err := readFrameCtx(ctx, conn, br)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("tcp: handshake with proc %d: %w", to, err)
	}
	if h.Kind != wire.KindAck || len(ack) < 1 {
		conn.Close()
		return nil, nil, fmt.Errorf("%w: proc %d sent kind %d instead of ack", ErrHandshake, to, h.Kind)
	}
	if ack[0] != ackOK {
		conn.Close()
		return nil, nil, fmt.Errorf("%w by proc %d: %s", ErrHandshake, to, string(ack[1:]))
	}
	return conn, br, nil
}

// link is one live connection to a peer process.
type link struct {
	proc   int
	conn   net.Conn
	outQ   chan []byte
	closed chan struct{} // closes writer on Transport.Close

	// down closes when the reader exits: no further frame will arrive
	// from this peer. downErr is the read error that ended it, if any.
	down    chan struct{}
	downErr error

	// lastRecv is the UnixNano of the last frame read from this peer
	// (any kind, heartbeats included) — the liveness signal the monitor
	// holds against the heartbeat deadline.
	lastRecv atomic.Int64
}

// redFrame is one collective frame (reduce contribution or release).
type redFrame struct {
	seq int64
	val int64
}

// Transport is one attempt's full mesh. It implements
// transport.Transport for the rank range its process hosts.
type Transport struct {
	cfg      Config
	epoch    int64
	r        int
	lo, hi   int
	rankProc []int // global rank → proc index

	links map[int]*link // peer proc → link

	inboxes  []chan transport.Batch // local ranks, indexed rank-lo
	maxDepth int64
	stale    int64 // frames dropped by the transport-level epoch fence
	hbMisses int64 // heartbeat intervals that passed without peer traffic

	// dead closes once on the first link failure; err carries the
	// PeerError every subsequently blocked call returns.
	dead     chan struct{}
	deadOnce sync.Once
	err      error

	closed chan struct{}
	wg     sync.WaitGroup
	wWg    sync.WaitGroup // writer goroutines only: Close waits for their
	// drain-and-flush before dropping the sockets

	// Hierarchical collective state (see package doc). pending holds
	// reduce contributions that arrived ahead of proc 0's local ranks —
	// a peer can be at most one collective ahead, but its frames for the
	// next sequence can land early.
	coll struct {
		mu    sync.Mutex
		cnt   int
		acc   int64
		seq   int64
		total int64
		err   error
		gen   chan struct{}
	}
	reduceCh  chan redFrame
	releaseCh chan redFrame
	pending   map[int64][]int64
}

// Connect builds the attempt's mesh: this process dials every peer with
// a lower index and claims the inbound connection from every peer with
// a higher one, all concurrently, failing if the mesh is not complete
// within the dial timeout.
func Connect(ctx context.Context, n *Node, cfg Config, epoch int64) (*Transport, error) {
	n.SetHandshakeTimeout(cfg.dialTimeout())
	self := cfg.Self
	p := cfg.Procs[self]
	r := cfg.Procs[len(cfg.Procs)-1].Hi
	t := &Transport{
		cfg: cfg, epoch: epoch, r: r, lo: p.Lo, hi: p.Hi,
		rankProc:  make([]int, r),
		links:     make(map[int]*link, len(cfg.Procs)-1),
		inboxes:   make([]chan transport.Batch, p.Hi-p.Lo),
		dead:      make(chan struct{}),
		closed:    make(chan struct{}),
		reduceCh:  make(chan redFrame, 4*len(cfg.Procs)+4),
		releaseCh: make(chan redFrame, 4),
		pending:   make(map[int64][]int64),
	}
	t.coll.gen = make(chan struct{})
	for pi, pr := range cfg.Procs {
		for rk := pr.Lo; rk < pr.Hi; rk++ {
			t.rankProc[rk] = pi
		}
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan transport.Batch, inboxDepth(r))
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.dialTimeout())
	defer cancel()
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for peer := range cfg.Procs {
		if peer == self {
			continue
		}
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			var br *bufio.Reader
			var err error
			if self > peer {
				conn, br, err = dialPeer(ctx, cfg.Procs[peer].Addr, self, peer, epoch, cfg.PlanHash, purposeData, cfg.Faults, cfg.dialTimeout())
			} else {
				var pc parkedConn
				pc, err = n.claim(ctx, peer, epoch)
				conn, br = pc.conn, pc.br
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			l := &link{proc: peer, conn: conn, outQ: make(chan []byte, outQDepth), closed: t.closed, down: make(chan struct{})}
			l.lastRecv.Store(time.Now().UnixNano())
			t.links[peer] = l
			t.wg.Add(2)
			t.wWg.Add(1)
			go t.writeLoop(l)
			go t.readLoop(l, br)
		}(peer)
	}
	wg.Wait()
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	if cfg.HeartbeatInterval > 0 && len(t.links) > 0 {
		t.wg.Add(1)
		go t.heartbeatLoop(cfg.HeartbeatInterval, cfg.heartbeatDeadline())
	}
	return t, nil
}

// ErrHeartbeat tags a peer declared dead by heartbeat deadline rather
// than by socket error — the partition detector's verdict.
var ErrHeartbeat = errors.New("tcp: heartbeat deadline exceeded")

// heartbeatLoop is the per-attempt liveness engine: every interval it
// queues a ping on each link and checks how long each peer has been
// silent. Any frame from the peer counts as life — data flow is its own
// heartbeat — so pings only matter on idle or black-holed links. A peer
// silent past the deadline fails the transport with a PeerError wrapping
// ErrHeartbeat, which is how a partition (sockets open, nothing moving)
// surfaces within a bounded time instead of as a hang.
func (t *Transport) heartbeatLoop(interval, deadline time.Duration) {
	defer t.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.closed:
			return
		case <-t.dead:
			return
		}
		now := time.Now().UnixNano()
		for peer, l := range t.links {
			silent := time.Duration(now - l.lastRecv.Load())
			if silent > interval {
				atomic.AddInt64(&t.hbMisses, 1)
			}
			if silent > deadline {
				t.fail(peer, fmt.Errorf("%w: no traffic from proc %d for %v (deadline %v)",
					ErrHeartbeat, peer, silent.Round(time.Millisecond), deadline))
				return
			}
			frame := framePool.Get().([]byte)[:0]
			frame = append(frame, make([]byte, wire.HeaderSize)...)
			wire.PutHeader(frame, wire.Header{
				Kind: wire.KindPing, From: uint32(t.cfg.Self), Dest: uint32(peer), Epoch: t.epoch,
			})
			select {
			case l.outQ <- frame:
			default:
				// Writer queue full: the link is moving real frames, which
				// already proves liveness to the peer.
				framePool.Put(frame[:0])
			}
		}
	}
}

// fail records the first link failure and releases every blocked call.
func (t *Transport) fail(peer int, err error) {
	t.deadOnce.Do(func() {
		t.err = &transport.PeerError{Proc: peer, Err: err}
		close(t.dead)
	})
}

// Err returns the transport failure, if any.
func (t *Transport) Err() error {
	select {
	case <-t.dead:
		return t.err
	default:
		return nil
	}
}

// writeLoop drains one link's frame queue onto the socket, applying the
// armed fault schedule per batch frame. It runs until Close or its own
// write error, not until the first failure elsewhere in the mesh: when a
// peer tears down after the last collective, releases proc 0 already
// queued for the other peers must still reach them.
func (t *Transport) writeLoop(l *link) {
	defer t.wg.Done()
	defer t.wWg.Done()
	bw := bufio.NewWriterSize(l.conn, 1<<16)
	// lost reports a batch frame of a failed mesh: the attempt is lost,
	// and a peer that stopped reading could block the write and with it
	// Close, so it is dropped.
	lost := func(frame []byte) bool { return frame[4] == wire.KindBatch && t.Err() != nil }
	flushTimer := false
	for {
		var frame []byte
		if flushTimer {
			// Opportunistic flush: only block on the queue once buffered
			// frames are on the wire, so a quiet link never strands them.
			select {
			case frame = <-l.outQ:
			default:
				if err := bw.Flush(); err != nil {
					t.fail(l.proc, err)
					return
				}
				flushTimer = false
				continue
			}
		} else {
			select {
			case frame = <-l.outQ:
			case <-l.closed:
				// Graceful teardown: frames already queued (a collective
				// release, a final EOF) must reach the wire before Close
				// drops the socket — a peer still waiting on them would
				// otherwise see a spurious link death.
				for {
					select {
					case frame = <-l.outQ:
						if frame == nil {
							continue
						}
						if f := t.cfg.Faults; lost(frame) || (f != nil && f.Partitioned()) {
							framePool.Put(frame[:0])
							continue
						}
						_, err := bw.Write(frame)
						framePool.Put(frame[:0]) //nolint:staticcheck // slice header boxing is fine here
						if err != nil {
							t.fail(l.proc, err)
							return
						}
					default:
						bw.Flush()
						return
					}
				}
			}
		}
		if frame == nil {
			continue
		}
		if lost(frame) {
			framePool.Put(frame[:0])
			continue
		}
		if f := t.cfg.Faults; f != nil && frame[4] == wire.KindBatch {
			n := atomic.AddInt64(&f.frames, 1)
			switch {
			case f.plan.PartialWriteFrame > 0 && n == f.plan.PartialWriteFrame:
				bw.Write(frame[:len(frame)/2])
				bw.Flush()
				hardClose(l.conn)
				t.fail(l.proc, fmt.Errorf("%w (partial write)", errInjectedReset))
				return
			case f.plan.ResetAfterFrames > 0 && n == f.plan.ResetAfterFrames:
				hardClose(l.conn)
				t.fail(l.proc, errInjectedReset)
				return
			case f.plan.KillAfterFrames > 0 && n == f.plan.KillAfterFrames:
				bw.Write(frame)
				bw.Flush()
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			case f.plan.PartitionAfterFrames > 0 && n == f.plan.PartitionAfterFrames:
				f.Partition()
			}
		}
		if f := t.cfg.Faults; f != nil && f.Partitioned() {
			// Black-holed: the frame silently vanishes, the socket stays
			// open. The peer's only clue is its heartbeat deadline.
			framePool.Put(frame[:0])
			continue
		}
		_, err := bw.Write(frame)
		framePool.Put(frame[:0]) //nolint:staticcheck // slice header boxing is fine here
		if err != nil {
			t.fail(l.proc, err)
			return
		}
		flushTimer = true
	}
}

// hardClose drops the connection with an RST (SO_LINGER 0) so the peer
// observes a reset, not an orderly EOF — the fault the schedule asks for.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// readLoop decodes one link's inbound frames: batches to the addressed
// rank's inbox (transport-level epoch fence first), collective frames to
// the reduce/release channels. A read error is the peer's death.
func (t *Transport) readLoop(l *link, br *bufio.Reader) {
	defer t.wg.Done()
	defer close(l.down)
	for {
		h, payload, err := readFrame(br)
		if err != nil {
			l.downErr = err
			select {
			case <-t.closed:
			default:
				t.fail(l.proc, err)
			}
			return
		}
		if f := t.cfg.Faults; f != nil && f.Partitioned() {
			// The black-hole is symmetric: inbound frames vanish too, and
			// lastRecv stays stale so this side's own monitor also fires.
			continue
		}
		l.lastRecv.Store(time.Now().UnixNano())
		switch h.Kind {
		case wire.KindPing:
			// Pure liveness; lastRecv above is its entire effect.
			continue
		case wire.KindBatch:
			if h.Epoch != t.epoch {
				// A frame from another attempt — possible only through a
				// misrouted zombie connection, since links are epoch-scoped.
				// Drop it whole, loudly countable.
				atomic.AddInt64(&t.stale, 1)
				continue
			}
			n := len(payload) / 16
			var edges []graph.Edge
			if t.cfg.Pool != nil {
				edges = t.cfg.Pool.Get(n)
			} else {
				edges = make([]graph.Edge, 0, n)
			}
			edges, err = wire.DecodeBatchPayload(edges, h, payload)
			if err != nil {
				if t.cfg.Pool != nil {
					t.cfg.Pool.Put(edges)
				}
				t.fail(l.proc, err)
				return
			}
			b := transport.Batch{
				From: int(h.From), Dest: int(h.Dest),
				Epoch: h.Epoch, Tile: int(h.Tile),
				Edges: edges, EOF: h.EOF(),
			}
			dest := int(h.Dest) - t.lo
			if dest < 0 || dest >= len(t.inboxes) {
				t.fail(l.proc, fmt.Errorf("tcp: frame for rank %d, local range [%d,%d)", h.Dest, t.lo, t.hi))
				return
			}
			select {
			case t.inboxes[dest] <- b:
				if d := int64(len(t.inboxes[dest])); d > 0 {
					atomicMax(&t.maxDepth, d)
				}
			case <-t.closed:
				return
			case <-t.dead:
				return
			}
		case wire.KindReduce:
			select {
			case t.reduceCh <- redFrame{seq: h.Tile, val: int64(binary.LittleEndian.Uint64(payload))}:
			case <-t.closed:
				return
			}
		case wire.KindRelease:
			select {
			case t.releaseCh <- redFrame{seq: h.Tile, val: int64(binary.LittleEndian.Uint64(payload))}:
			case <-t.closed:
				return
			}
		default:
			t.fail(l.proc, fmt.Errorf("tcp: unexpected frame kind %d mid-run", h.Kind))
			return
		}
	}
}

// R implements Transport.
func (t *Transport) R() int { return t.r }

// Local implements Transport.
func (t *Transport) Local() (lo, hi int) { return t.lo, t.hi }

// Epoch returns the attempt epoch the mesh was built for.
func (t *Transport) Epoch() int64 { return t.epoch }

// SendBatch implements Transport. Local destinations are delivered
// through the in-process inboxes exactly like the chan transport;
// remote ones serialize onto the peer link's writer queue, after which
// the staging buffer is recycled to the pool — the wire owns the bytes.
func (t *Transport) SendBatch(ctx context.Context, b transport.Batch, progress func(transport.Batch)) error {
	select {
	case <-t.dead:
		// A failed mesh refuses new work immediately: without this check
		// a send could still slip onto a dead link's queue (its writer is
		// gone) and look delivered, masking the failure until the queue
		// fills.
		return t.err
	default:
	}
	if b.Dest == b.From {
		progress(b)
		return nil
	}
	own := t.inboxes[b.From-t.lo]
	if t.rankProc[b.Dest] == t.cfg.Self {
		inbox := t.inboxes[b.Dest-t.lo]
		for {
			select {
			case inbox <- b:
				if d := int64(len(inbox)); d > 0 {
					atomicMax(&t.maxDepth, d)
				}
				return nil
			case m := <-own:
				progress(m)
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-t.dead:
				return t.err
			}
		}
	}
	l := t.links[t.rankProc[b.Dest]]
	frame := wire.AppendBatch(framePool.Get().([]byte)[:0],
		uint32(b.From), uint32(b.Dest), b.Epoch, int64(b.Tile), b.Edges, b.EOF)
	for {
		select {
		case l.outQ <- frame:
			// The frame owns the bytes now; the staging buffer goes back
			// to the pool for the next flush.
			if t.cfg.Pool != nil {
				t.cfg.Pool.Put(b.Edges)
			}
			return nil
		case m := <-own:
			progress(m)
		case <-ctx.Done():
			framePool.Put(frame[:0])
			return context.Cause(ctx)
		case <-t.dead:
			framePool.Put(frame[:0])
			return t.err
		}
	}
}

// TrySendBatch implements transport.TrySender: a non-blocking SendBatch.
// Local destinations are accepted only when the in-process inbox has
// room; remote ones only when the peer link's writer queue does. On
// refusal the batch stays unserialized with the caller (the frame built
// for a refused remote send goes straight back to the frame pool), so a
// later retry re-encodes — refusals are rare enough that re-encoding is
// cheaper than holding frames hostage to queue pressure.
func (t *Transport) TrySendBatch(b transport.Batch) (bool, error) {
	select {
	case <-t.dead:
		return false, t.err
	default:
	}
	if b.Dest == b.From {
		return false, nil
	}
	if t.rankProc[b.Dest] == t.cfg.Self {
		inbox := t.inboxes[b.Dest-t.lo]
		select {
		case inbox <- b:
			if d := int64(len(inbox)); d > 0 {
				atomicMax(&t.maxDepth, d)
			}
			return true, nil
		default:
			return false, nil
		}
	}
	l := t.links[t.rankProc[b.Dest]]
	frame := wire.AppendBatch(framePool.Get().([]byte)[:0],
		uint32(b.From), uint32(b.Dest), b.Epoch, int64(b.Tile), b.Edges, b.EOF)
	select {
	case l.outQ <- frame:
		if t.cfg.Pool != nil {
			t.cfg.Pool.Put(b.Edges)
		}
		return true, nil
	default:
		framePool.Put(frame[:0])
		return false, nil
	}
}

// TryRecv implements Transport.
func (t *Transport) TryRecv(rank int) (transport.Batch, bool) {
	select {
	case b := <-t.inboxes[rank-t.lo]:
		return b, true
	default:
		return transport.Batch{}, false
	}
}

// Recv implements Transport.
func (t *Transport) Recv(ctx context.Context, rank int) (transport.Batch, error) {
	select {
	case b := <-t.inboxes[rank-t.lo]:
		return b, nil
	case <-ctx.Done():
		return transport.Batch{}, context.Cause(ctx)
	case <-t.dead:
		// Batches a peer sent before closing are already in the inbox
		// (per-link FIFO): deliver them with priority so a graceful peer
		// shutdown after its last send never eats a delivered batch.
		select {
		case b := <-t.inboxes[rank-t.lo]:
			return b, nil
		default:
			return transport.Batch{}, t.err
		}
	}
}

// Barrier implements Transport.
func (t *Transport) Barrier(ctx context.Context, rank int) error {
	_, err := t.collective(ctx, 0)
	return err
}

// AllReduceSum implements Transport.
func (t *Transport) AllReduceSum(ctx context.Context, rank int, v int64) (int64, error) {
	return t.collective(ctx, v)
}

// collective combines the local ranks' contributions, then the last
// local arriver runs the cross-process star phase and publishes the
// grand total to the waiting ranks.
func (t *Transport) collective(ctx context.Context, v int64) (int64, error) {
	c := &t.coll
	nLocal := t.hi - t.lo
	c.mu.Lock()
	c.acc += v
	c.cnt++
	if c.cnt < nLocal {
		ch := c.gen
		c.mu.Unlock()
		// A mesh death while waiting does not abort the wait: the last
		// local arriver may still complete this collective from frames a
		// peer sent before closing (they are already buffered locally —
		// per-link FIFO), and if the death was real it publishes t.err
		// through the same channel. Only ctx bounds the wait.
		deadCh := t.dead
		for {
			select {
			case <-ch:
				return c.total, c.err
			case <-ctx.Done():
				c.mu.Lock()
				select {
				case <-ch:
					c.mu.Unlock()
					return c.total, c.err
				default:
				}
				c.cnt--
				c.acc -= v
				c.mu.Unlock()
				return 0, context.Cause(ctx)
			case <-deadCh:
				deadCh = nil // noted; keep waiting for the publication
			}
		}
	}
	sum, seq := c.acc, c.seq
	c.cnt, c.acc = 0, 0
	c.mu.Unlock()
	total, err := t.netReduce(ctx, seq, sum)
	c.mu.Lock()
	c.total, c.err = total, err
	c.seq++
	ch := c.gen
	c.gen = make(chan struct{})
	close(ch)
	c.mu.Unlock()
	return total, err
}

// netReduce is the cross-process phase: workers send their local sum to
// proc 0 and wait for the release; proc 0 collects every contribution
// for this sequence number (buffering early arrivals for the next one)
// and broadcasts the total.
func (t *Transport) netReduce(ctx context.Context, seq, sum int64) (int64, error) {
	if len(t.cfg.Procs) == 1 {
		return sum, nil
	}
	var payload [8]byte
	if t.cfg.Self != 0 {
		binary.LittleEndian.PutUint64(payload[:], uint64(sum))
		if err := t.sendSmall(ctx, 0, wire.KindReduce, seq, payload[:]); err != nil {
			return 0, err
		}
		// Only proc 0 can release this wait, so only its link decides
		// it. Another worker's link may die first for a benign reason:
		// that worker got its release and tore its mesh down, and links
		// are not ordered against each other. A worker that really died
		// before contributing stalls proc 0's collect instead, and proc 0
		// then fails and closes its own links.
		head := t.links[0]
		deadCh := t.dead
		for {
			select {
			case m := <-t.releaseCh:
				if m.seq == seq {
					return m.val, nil
				}
				// An older release is residue of a generation this proc
				// already left (possible only across a Reset); drop it.
			case <-ctx.Done():
				return 0, context.Cause(ctx)
			case <-deadCh:
				deadCh = nil
				if pe, ok := t.err.(*transport.PeerError); !ok || pe.Proc == 0 {
					return t.awaitRelease(seq, t.err) // e.g. proc 0's heartbeat deadline
				}
			case <-head.down:
				err := error(&transport.PeerError{Proc: 0, Err: head.downErr})
				if head.downErr == nil {
					err = t.Err()
				}
				return t.awaitRelease(seq, err)
			}
		}
	}
	total := sum
	need := len(t.cfg.Procs) - 1
	fold := func(m redFrame) {
		switch {
		case m.seq == seq:
			total += m.val
			need--
		case m.seq > seq:
			t.pending[m.seq] = append(t.pending[m.seq], m.val)
		}
	}
	for _, v := range t.pending[seq] {
		total += v
		need--
	}
	delete(t.pending, seq)
	deadCh := t.dead
collect:
	for need > 0 {
		select {
		case m := <-t.reduceCh:
			fold(m)
		case <-ctx.Done():
			return 0, context.Cause(ctx)
		case <-deadCh:
			// Contributions sent before a peer's close are already
			// buffered (per-link FIFO); drain them with priority, and
			// fail only if a needed one is genuinely missing.
			for need > 0 {
				select {
				case m := <-t.reduceCh:
					fold(m)
				default:
					return 0, t.err
				}
			}
			break collect
		}
	}
	binary.LittleEndian.PutUint64(payload[:], uint64(total))
	for peer := range t.links {
		if err := t.sendSmall(ctx, peer, wire.KindRelease, seq, payload[:]); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// awaitRelease ends a worker's collective wait once proc 0's link is
// gone. A release proc 0 sent before closing is already in the channel
// (per-link FIFO), so it wins over the failure.
func (t *Transport) awaitRelease(seq int64, err error) (int64, error) {
	for {
		select {
		case m := <-t.releaseCh:
			if m.seq == seq {
				return m.val, nil
			}
		default:
			if err == nil {
				err = &transport.PeerError{Proc: 0, Err: io.ErrUnexpectedEOF}
			}
			return 0, err
		}
	}
}

// sendSmall queues one fixed-payload frame on a peer link.
func (t *Transport) sendSmall(ctx context.Context, peer int, kind uint8, seq int64, payload []byte) error {
	frame := framePool.Get().([]byte)[:0]
	n := len(frame)
	frame = append(frame, make([]byte, wire.HeaderSize+len(payload))...)
	wire.PutHeader(frame[n:], wire.Header{
		Kind: kind, From: uint32(t.cfg.Self), Dest: uint32(peer),
		Epoch: t.epoch, Tile: seq, PayloadLen: uint32(len(payload)),
	})
	copy(frame[n+wire.HeaderSize:], payload)
	// Enqueue first when there is room: a failure on some other link
	// must not lose a frame this link can still carry (select picks
	// among ready cases at random).
	select {
	case t.links[peer].outQ <- frame:
		return nil
	default:
	}
	select {
	case t.links[peer].outQ <- frame:
		return nil
	case <-ctx.Done():
		framePool.Put(frame[:0])
		return context.Cause(ctx)
	case <-t.dead:
		framePool.Put(frame[:0])
		return t.err
	}
}

// Reset implements Transport: drains local inboxes and rewinds the
// local collective stage. Cluster mode builds a fresh mesh per attempt
// instead of resetting, so this only serves single-process use of the
// TCP transport (benchmarks, conformance).
func (t *Transport) Reset(release func(transport.Batch)) {
	for _, ch := range t.inboxes {
	drain:
		for {
			select {
			case b := <-ch:
				if release != nil {
					release(b)
				}
			default:
				break drain
			}
		}
	}
	t.coll.mu.Lock()
	t.coll.cnt, t.coll.acc = 0, 0
	t.coll.mu.Unlock()
	atomic.StoreInt64(&t.maxDepth, 0)
}

// Close implements Transport: tears down every link and joins the
// reader/writer goroutines. Safe to call more than once.
func (t *Transport) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
	}
	close(t.closed)
	// Writers first: they drain queued frames and flush on t.closed, so a
	// release or EOF already queued reaches the peer before the socket
	// drops. A writer blocked on a dead peer exits via the write error.
	t.wWg.Wait()
	for _, l := range t.links {
		l.conn.Close()
	}
	t.wg.Wait()
	return nil
}

// MaxDepth reports the deepest observed inbox backlog, in batches.
func (t *Transport) MaxDepth() int64 { return atomic.LoadInt64(&t.maxDepth) }

// StaleFrames reports batch frames dropped by the transport-level epoch
// fence.
func (t *Transport) StaleFrames() int64 { return atomic.LoadInt64(&t.stale) }

// HeartbeatMisses reports heartbeat intervals that elapsed with no
// traffic from some peer — early smoke for a link going quiet, whether
// or not it later crossed the deadline.
func (t *Transport) HeartbeatMisses() int64 { return atomic.LoadInt64(&t.hbMisses) }

// Inject enqueues a batch directly into a local destination inbox — the
// conformance suite's hook for forging residue from another attempt.
func (t *Transport) Inject(b transport.Batch) { t.inboxes[b.Dest-t.lo] <- b }

func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// readFrame reads one complete frame (header + payload). The returned
// payload aliases a per-call allocation sized by the header.
func readFrame(br *bufio.Reader) (wire.Header, []byte, error) {
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return wire.Header{}, nil, err
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		return wire.Header{}, nil, err
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return wire.Header{}, nil, fmt.Errorf("tcp: torn frame: %w", err)
	}
	return h, payload, nil
}

// readFrameCtx is readFrame bounded by ctx via short read deadlines —
// for handshake reads, where the peer may answer much later (deferred
// ack) or never (refused).
func readFrameCtx(ctx context.Context, conn net.Conn, br *bufio.Reader) (wire.Header, []byte, error) {
	for {
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		h, payload, err := readFrame(br)
		if err == nil {
			conn.SetReadDeadline(time.Time{})
			return h, payload, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && ctx.Err() == nil {
			continue
		}
		if ctx.Err() != nil {
			return wire.Header{}, nil, context.Cause(ctx)
		}
		return wire.Header{}, nil, err
	}
}

// writeSmallFrame writes one small frame straight to the connection.
func writeSmallFrame(conn net.Conn, kind uint8, from, dest int, epoch, tile int64, payload []byte) error {
	buf := make([]byte, wire.HeaderSize+len(payload))
	wire.PutHeader(buf, wire.Header{
		Kind: kind, From: uint32(from), Dest: uint32(dest),
		Epoch: epoch, Tile: tile, PayloadLen: uint32(len(payload)),
	})
	copy(buf[wire.HeaderSize:], payload)
	_, err := conn.Write(buf)
	return err
}

// writeAck writes a handshake ack (status + optional error text).
func writeAck(conn net.Conn, from, dest int, epoch int64, status byte, msg string) error {
	payload := append([]byte{status}, msg...)
	return writeSmallFrame(conn, wire.KindAck, from, dest, epoch, 0, payload)
}

// CtrlConn is a persistent control link carrying JSON-bodied frames —
// the worker↔head channel cluster mode coordinates attempts over.
type CtrlConn struct {
	conn net.Conn
	br   *bufio.Reader
	self int
	Peer int // the proc index at the other end

	wmu sync.Mutex

	// hbDeadline, when positive, bounds how long Recv tolerates total
	// silence before declaring the peer dead. hbStop ends the pinger.
	hbDeadline time.Duration
	hbOnce     sync.Once
	hbStop     chan struct{}
	closeOnce  sync.Once
}

func newCtrlConn(conn net.Conn, br *bufio.Reader, self, peer int) *CtrlConn {
	return &CtrlConn{conn: conn, br: br, self: self, Peer: peer, hbStop: make(chan struct{})}
}

// DialControl opens a control connection to the head. dialTimeout bounds
// each underlying dial attempt (≤ 0 means 10s); ctx bounds the whole
// exchange including the deferred ack.
func DialControl(ctx context.Context, addr string, self int, planHash uint64, dialTimeout time.Duration) (*CtrlConn, error) {
	conn, br, err := dialPeer(ctx, addr, self, 0, -1, planHash, purposeCtrl, nil, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newCtrlConn(conn, br, self, 0), nil
}

// StartHeartbeat arms liveness on the control link: a pinger sends
// KindPing every interval, and Recv starts refusing to wait longer than
// deadline (≤ 0 means 5× interval) for any frame. Both ends must arm —
// each side's pings feed the other side's deadline. Safe to call once;
// Close stops the pinger.
func (cc *CtrlConn) StartHeartbeat(interval, deadline time.Duration) {
	if interval <= 0 {
		return
	}
	if deadline <= 0 {
		deadline = 5 * interval
	}
	cc.hbOnce.Do(func() {
		cc.hbDeadline = deadline
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					cc.wmu.Lock()
					err := writeSmallFrame(cc.conn, wire.KindPing, cc.self, cc.Peer, 0, 0, nil)
					cc.wmu.Unlock()
					if err != nil {
						return // Recv surfaces the death; pinging is pointless now
					}
				case <-cc.hbStop:
					return
				}
			}
		}()
	})
}

// Send JSON-encodes v into one control frame.
func (cc *CtrlConn) Send(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return writeSmallFrame(cc.conn, wire.KindControl, cc.self, cc.Peer, 0, 0, body)
}

// Recv blocks for the next control frame and decodes it into v.
// Heartbeat frames are consumed silently as proof of life; with
// StartHeartbeat armed, total silence past the deadline returns a
// PeerError wrapping ErrHeartbeat instead of blocking forever on a
// black-holed link.
func (cc *CtrlConn) Recv(ctx context.Context, v any) error {
	for {
		rctx := ctx
		var cancel context.CancelFunc
		if d := cc.hbDeadline; d > 0 {
			rctx, cancel = context.WithTimeoutCause(ctx, d,
				&transport.PeerError{Proc: cc.Peer, Err: fmt.Errorf("%w: control link silent for %v", ErrHeartbeat, d)})
		}
		h, payload, err := readFrameCtx(rctx, cc.conn, cc.br)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			return err
		}
		if h.Kind == wire.KindPing {
			continue
		}
		if h.Kind != wire.KindControl {
			return fmt.Errorf("tcp: control link got frame kind %d", h.Kind)
		}
		return json.Unmarshal(payload, v)
	}
}

// Close closes the control connection and stops its heartbeat pinger.
func (cc *CtrlConn) Close() error {
	cc.closeOnce.Do(func() { close(cc.hbStop) })
	return cc.conn.Close()
}
