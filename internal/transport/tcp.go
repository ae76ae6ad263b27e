package transport

// The real-network backend: length-prefixed frames over TCP. Each node
// listens on its own address and keeps one outbound connection per
// peer, established lazily and re-established with exponential backoff
// after any dial or write failure. Send encodes each frame straight
// into its peer's byte buffer (an oversized frame fails there, before
// anything is queued); the peer's writer takes the whole buffer at
// each wake and sends it with one write, so the frames a lockstep
// round queues together leave together. Inbound connections
// authenticate with a hello frame naming the sender id, then stream
// frames through one buffered reader into the shared inbox. Close
// drains the outbound buffers (bounded by DrainTimeout) before tearing
// links down, so a node that finishes a protocol and shuts down does
// not strand the final round's frames.
//
// Delivery is at-least-once across reconnects: a write error after the
// peer already received part of a batch leads the writer to resend the
// whole batch on the new connection, so the peer may see several
// frames twice. That is inside the protocols' delivery model — the EIG
// tree store is idempotent and the lockstep runner drops stale data
// frames and counts each barrier once — and matches the duplication
// tolerance the sim's fault layer already exercises.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relaxedbvc/internal/metrics"
)

// helloTag is the connection-opening control frame naming the dialing
// node; '\x00'-prefixed tags are reserved for the transport layer.
const helloTag = "\x00hello"

var (
	tcpFramesSent = metrics.DefaultCounter("transport_tcp_frames_sent_total")
	tcpFramesRecv = metrics.DefaultCounter("transport_tcp_frames_received_total")
	tcpBytesSent  = metrics.DefaultCounter("transport_tcp_bytes_sent_total")
	tcpReconnects = metrics.DefaultCounter("transport_tcp_reconnects_total")
	tcpLinkErrors = metrics.DefaultCounter("transport_tcp_link_errors_total")
	tcpWrites     = metrics.DefaultCounter("transport_tcp_writes_total")
)

// tcpInboxCap bounds buffered inbound frames; senders' writes park in
// kernel buffers once it fills.
const tcpInboxCap = 1 << 13

// tcpQueueBytes bounds each peer's buffer of encoded outbound frames;
// Send blocks (backpressure) while a peer is this far behind.
const tcpQueueBytes = 1 << 20

// TCPConfig configures one node's TCP endpoint.
type TCPConfig struct {
	// Self is this node's id.
	Self int
	// Peers maps every node id (0..n-1, Self included) to its
	// host:port listen address.
	Peers map[int]string
	// Listener optionally supplies a pre-bound listener for
	// Peers[Self]; tests bind ":0" first to learn the port. When nil,
	// DialTCP listens on Peers[Self].
	Listener net.Listener
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 25ms / 2s).
	BackoffMin, BackoffMax time.Duration
	// DrainTimeout bounds how long Close waits for queued outbound
	// frames to flush (default 5s).
	DrainTimeout time.Duration
	// MaxFrame is the frame size limit in bytes (default
	// DefaultMaxFrame).
	MaxFrame int
}

func (c *TCPConfig) withDefaults() TCPConfig {
	out := *c
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.BackoffMin <= 0 {
		out.BackoffMin = 25 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 2 * time.Second
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 5 * time.Second
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	return out
}

// TCP is one node's endpoint on a TCP cluster. Build with DialTCP.
type TCP struct {
	cfg  TCPConfig
	self int
	n    int

	ln    net.Listener
	inbox chan Frame
	peers []*tcpPeer // indexed by id; nil at self

	closing   chan struct{}
	closeOnce sync.Once
	// drainBy ends the writers' final flush; set before closing is
	// closed, so it is read only after observing that.
	drainBy  time.Time
	writerWG sync.WaitGroup
	readerWG sync.WaitGroup

	mu       sync.Mutex
	linkErrs map[int]error
	conns    map[net.Conn]struct{}

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	reconnects atomic.Int64
	writes     atomic.Int64
}

type tcpPeer struct {
	id   int
	addr string

	mu sync.Mutex
	// out holds encoded frames Send has queued and the writer has not
	// taken yet.
	out []byte
	// space wakes senders parked on a full out; it locks mu.
	space sync.Cond
	// wake (cap 1) tells the writer that out is non-empty.
	wake chan struct{}

	// connected records that this link has succeeded at least once, so
	// later re-establishments count as reconnects. Only the peer's
	// writeLoop goroutine touches it.
	connected bool
}

// take swaps the queued bytes for spare (emptied) and wakes parked
// senders.
func (p *tcpPeer) take(spare []byte) []byte {
	p.mu.Lock()
	batch := p.out
	p.out = spare[:0]
	p.space.Broadcast()
	p.mu.Unlock()
	return batch
}

func (p *tcpPeer) queued() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.out) > 0
}

// DialTCP opens node cfg.Self's endpoint: it listens on
// cfg.Peers[cfg.Self] (or cfg.Listener) immediately and connects to
// each peer lazily on first send, retrying with backoff until the peer
// is up — so cluster nodes may start in any order.
func DialTCP(cfg TCPConfig) (*TCP, error) {
	c := cfg.withDefaults()
	n := len(c.Peers)
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 peers, got %d", ErrBadPeer, n)
	}
	for id := 0; id < n; id++ {
		if _, ok := c.Peers[id]; !ok {
			return nil, fmt.Errorf("%w: peer ids must be contiguous 0..%d, missing %d", ErrBadPeer, n-1, id)
		}
	}
	if c.Self < 0 || c.Self >= n {
		return nil, fmt.Errorf("%w: self id %d outside [0,%d)", ErrBadPeer, c.Self, n)
	}
	t := &TCP{
		cfg:      c,
		self:     c.Self,
		n:        n,
		inbox:    make(chan Frame, tcpInboxCap),
		peers:    make([]*tcpPeer, n),
		closing:  make(chan struct{}),
		linkErrs: make(map[int]error),
		conns:    make(map[net.Conn]struct{}),
	}
	if c.Listener != nil {
		t.ln = c.Listener
	} else {
		ln, err := net.Listen("tcp", c.Peers[c.Self])
		if err != nil {
			return nil, fmt.Errorf("%w: node %d listen %s: %v", ErrLink, c.Self, c.Peers[c.Self], err)
		}
		t.ln = ln
	}
	for id := 0; id < n; id++ {
		if id == t.self {
			continue
		}
		p := &tcpPeer{id: id, addr: c.Peers[id], wake: make(chan struct{}, 1)}
		p.space.L = &p.mu
		t.peers[id] = p
		t.writerWG.Add(1)
		go t.writeLoop(p)
	}
	t.readerWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self implements Transport.
func (t *TCP) Self() int { return t.self }

// N implements Transport.
func (t *TCP) N() int { return t.n }

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Send implements Transport: it encodes f into the peer's outbound
// buffer (blocking for backpressure) and returns once queued; the
// per-peer writer flushes asynchronously with reconnect. A frame over
// MaxFrame fails with ErrFrameTooLarge and nothing is queued.
func (t *TCP) Send(f Frame) error {
	if t.isClosing() {
		return fmt.Errorf("%w: node %d send after close", ErrClosed, t.self)
	}
	f.From = t.self
	if f.To == Broadcast {
		for to := 0; to < t.n; to++ {
			if to == t.self {
				continue
			}
			f.To = to
			if err := t.enqueue(&f); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkPeer(f.To, t.self, t.n); err != nil {
		return err
	}
	return t.enqueue(&f)
}

func (t *TCP) enqueue(f *Frame) error {
	p := t.peers[f.To]
	p.mu.Lock()
	for len(p.out) >= tcpQueueBytes && !t.isClosing() {
		p.space.Wait()
	}
	// Checked under mu: once the writer has seen closing and found out
	// empty, no later frame can slip in behind its final flush.
	if t.isClosing() {
		p.mu.Unlock()
		return fmt.Errorf("%w: node %d closed mid-send", ErrClosed, t.self)
	}
	out, err := AppendFrame(p.out, f, t.cfg.MaxFrame)
	p.out = out
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("node %d send to %d: %w", t.self, f.To, err)
	}
	t.framesSent.Add(1)
	tcpFramesSent.Inc()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

func (t *TCP) isClosing() bool {
	select {
	case <-t.closing:
		return true
	default:
		return false
	}
}

// Recv implements Transport. Buffered frames stay receivable during
// shutdown until the inbox drains.
func (t *TCP) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-t.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-t.inbox:
		return f, nil
	case <-t.closing:
		return Frame{}, fmt.Errorf("%w: node %d recv after close", ErrClosed, t.self)
	case <-ctx.Done():
		return Frame{}, fmt.Errorf("%w: recv: %w", ErrTransport, ctx.Err())
	}
}

// LinkError reports the most recent failure on the link to peer (nil
// when the link has never failed). Errors chain ErrLink/ErrTransport.
func (t *TCP) LinkError(peer int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.linkErrs[peer]
}

// Stats implements Instrumented.
func (t *TCP) Stats() Stats {
	return Stats{
		FramesSent:     t.framesSent.Load(),
		FramesReceived: t.framesRecv.Load(),
		BytesSent:      t.bytesSent.Load(),
		Reconnects:     t.reconnects.Load(),
		Writes:         t.writes.Load(),
	}
}

// Close shuts the endpoint down gracefully: new and parked Sends fail,
// the per-peer writers flush their buffers (bounded by DrainTimeout),
// then the listener and every connection close and all loops are
// joined.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.drainBy = time.Now().Add(t.cfg.DrainTimeout)
		close(t.closing)
		for _, p := range t.peers {
			if p != nil {
				p.mu.Lock()
				p.space.Broadcast()
				p.mu.Unlock()
			}
		}
	})
	done := make(chan struct{})
	go func() {
		t.writerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(t.cfg.DrainTimeout + time.Second):
	}
	t.ln.Close() //nolint:errcheck // already closing
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close() //nolint:errcheck // already closing
	}
	t.mu.Unlock()
	t.readerWG.Wait()
	return nil
}

func (t *TCP) setLinkErr(peer int, err error) {
	tcpLinkErrors.Inc()
	t.mu.Lock()
	t.linkErrs[peer] = err
	t.mu.Unlock()
}

// --- outbound: per-peer writer with reconnect/backoff ---

// dial attempts one connection + hello handshake to p.
func (t *TCP) dial(p *tcpPeer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %d->%d (%s): %v", ErrLink, t.self, p.id, p.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency knob
	}
	hello := Frame{From: t.self, To: p.id, Round: -1, Tag: helloTag}
	t.writes.Add(1)
	tcpWrites.Inc()
	if _, err := WriteFrame(conn, &hello, t.cfg.MaxFrame); err != nil {
		conn.Close() //nolint:errcheck // dial failed anyway
		return nil, fmt.Errorf("%w: hello %d->%d: %v", ErrLink, t.self, p.id, err)
	}
	return conn, nil
}

// connect dials p with exponential backoff until it succeeds or, once
// the transport is closing, until the drain deadline passes (then it
// returns nil).
func (t *TCP) connect(p *tcpPeer) net.Conn {
	backoff := t.cfg.BackoffMin
	for {
		closing := t.isClosing()
		if closing && !time.Now().Before(t.drainBy) {
			return nil
		}
		conn, err := t.dial(p)
		if err == nil {
			if p.connected {
				t.reconnects.Add(1)
				tcpReconnects.Inc()
			}
			p.connected = true
			return conn
		}
		t.setLinkErr(p.id, err)
		wait, stop := backoff, t.closing
		if closing {
			// Draining: sleep out the backoff, cut at the deadline.
			wait, stop = min(wait, time.Until(t.drainBy)), nil
		}
		// A stopped timer, not time.After, whose timer would stay alive
		// for the full backoff after Close.
		retry := time.NewTimer(wait)
		select {
		case <-stop:
		case <-retry.C:
		}
		retry.Stop()
		if backoff *= 2; backoff > t.cfg.BackoffMax {
			backoff = t.cfg.BackoffMax
		}
	}
}

// writeLoop sends p's queued frames: at each wake it takes the whole
// buffer and writes it with one conn.Write, reconnecting and rewriting
// the batch after a failure. After Close it keeps flushing until the
// buffer is empty or the drain deadline passes.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.writerWG.Done()
	var conn net.Conn
	var batch []byte
	defer func() {
		if conn != nil {
			conn.Close() //nolint:errcheck // shutdown
		}
	}()
	for {
		select {
		case <-p.wake:
		case <-t.closing:
		}
		closing := t.isClosing()
		// Connect before taking the batch, so that frames queued while
		// the link was down leave in one write.
		if conn == nil && p.queued() {
			if conn = t.connect(p); conn == nil {
				return
			}
		}
		batch = p.take(batch)
		for len(batch) > 0 {
			if conn == nil {
				if conn = t.connect(p); conn == nil {
					return
				}
			}
			if closing {
				conn.SetWriteDeadline(t.drainBy) //nolint:errcheck // a failed write reports it
			}
			t.writes.Add(1)
			tcpWrites.Inc()
			_, err := conn.Write(batch)
			if err == nil {
				t.bytesSent.Add(int64(len(batch)))
				tcpBytesSent.Add(int64(len(batch)))
				break
			}
			t.setLinkErr(p.id, fmt.Errorf("%w: write %d->%d: %v", ErrLink, t.self, p.id, err))
			conn.Close() //nolint:errcheck // already failed
			conn = nil
		}
		if closing && !p.queued() {
			return
		}
	}
}

// --- inbound: accept + read loops ---

func (t *TCP) acceptLoop() {
	defer t.readerWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closing:
			default:
				t.setLinkErr(t.self, fmt.Errorf("%w: node %d accept: %v", ErrLink, t.self, err))
			}
			return
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.readerWG.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.readerWG.Done()
	defer func() {
		conn.Close() //nolint:errcheck // read side done
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	// One buffered reader per connection, so a round's batch arrives
	// in one read.
	r := bufio.NewReader(conn)
	hello, err := ReadFrame(r, t.cfg.MaxFrame)
	if err != nil || hello.Tag != helloTag || hello.From < 0 || hello.From >= t.n || hello.From == t.self {
		// Not a cluster peer (or a broken handshake): drop the
		// connection without poisoning a link slot.
		return
	}
	peer := hello.From
	for {
		f, err := ReadFrame(r, t.cfg.MaxFrame)
		if err != nil {
			select {
			case <-t.closing:
			default:
				t.setLinkErr(peer, fmt.Errorf("%w: read %d->%d: %v", ErrLink, peer, t.self, err))
			}
			return
		}
		if f.Tag == helloTag {
			continue
		}
		f.From = peer // trust the handshake, not the frame header
		t.framesRecv.Add(1)
		tcpFramesRecv.Inc()
		select {
		case t.inbox <- f:
		case <-t.closing:
			return
		}
	}
}

// SortedPeerIDs returns the peer ids of a config in ascending order
// (deterministic iteration helper for callers logging the peer set).
func SortedPeerIDs(peers map[int]string) []int {
	ids := make([]int, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
