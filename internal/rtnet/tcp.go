// Package rtnet runs the engine stack in real time, one node per
// process: TCP carries its messages between processes, a Loop drives
// the engine's own simtime.Scheduler on the wall clock, ExecTransport
// routes every delivery onto that loop's goroutine, and the debug HTTP
// handler exposes the node's metrics and traces. The engine itself is
// unchanged: it stays single-threaded, exactly as in the deterministic
// simulator, which remains the reference environment for experiments
// and tests.
package rtnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/wire"
)

// tcpMagic opens every connection, followed by a protocol version byte
// and the dialing node's id as a uvarint. A listener that reads anything
// else drops the connection: the handshake is the only gate between the
// decode path and arbitrary internet garbage, so everything after it is
// still treated as untrusted (length-capped frames, bounds-checked
// decode) — the magic merely filters out misdirected clients early.
var tcpMagic = [4]byte{'f', 'r', 'a', 'g'}

// tcpVersion names the wire format: internal/wire's tag table and the
// field layout behind each tag. Bump it when a tag changes meaning, so
// a peer from another tree is refused here, once, rather than accepted
// and dropped at its first undecodable frame on every reconnect.
// 2: one tag+varint codec for every message (1 had gob behind tag 0).
// 3: a snapshot's versions travel grouped by fragment.
const tcpVersion = 3

// controlQueue bounds a peer's control queue: lock requests, grants and
// releases, 2PC, forwarded operations, majority acks, agent handoffs.
// Nothing re-sends these, so they must not share the data queue's fate.
// Their number follows the transactions in flight, not the broadcast's
// rate, so a fixed bound serves; a send it cannot hold is counted as
// TCPStats.ControlFull, which should read 0.
const controlQueue = 1024

// TCPConfig configures a TCP transport for one node of a cluster.
type TCPConfig struct {
	// Local is this process's node id; Addrs[Local] is its listen
	// address and the remaining entries are its peers.
	Local netsim.NodeID
	Addrs []string

	// Listener, when non-nil, is used instead of listening on
	// Addrs[Local] — tests use it to bind ephemeral ports first and
	// exchange the resulting addresses.
	Listener net.Listener

	// WriteQueue bounds the per-peer outbound data queue (default 1024),
	// which carries the broadcast's own messages (broadcast.Resendable).
	// When a peer is down or slow it fills and further data sends are
	// dropped — the best-effort semantics of netsim, which anti-entropy
	// repairs. Everything else is sent once and goes to the per-peer
	// control queue (controlQueue), which the writer drains first.
	WriteQueue int

	// DialBackoffMin/Max bound the reconnect backoff (defaults 50ms and
	// 2s).
	DialBackoffMin, DialBackoffMax time.Duration
}

// TCPStats counts transport-level events; all fields are atomic.
type TCPStats struct {
	FramesSent, BytesSent atomic.Uint64
	FramesRecv, BytesRecv atomic.Uint64
	// SendDropped counts every discarded send: the sum of the causes
	// below.
	SendDropped atomic.Uint64
	// QueueFull: the peer's data queue was full (anti-entropy re-sends).
	// ControlFull: its control queue was full; nothing re-sends these.
	// DropRule: a SetPeerDrop rule was in force. Closed: the transport
	// was closed. Encode: the payload has no wire encoding.
	QueueFull, ControlFull, DropRule, Closed, Encode atomic.Uint64
	RecvDropped                                      atomic.Uint64 // drop rule or decode error
	Dials, DialErrors                                atomic.Uint64
	ConnsAccepted, ConnErrors                        atomic.Uint64
}

// DropCount is one cause's share of TCPStats.SendDropped.
type DropCount struct {
	Cause string
	N     uint64
}

// SendDrops lists the dropped sends by cause, in a fixed order.
func (s *TCPStats) SendDrops() []DropCount {
	return []DropCount{
		{"queue_full", s.QueueFull.Load()},
		{"control_full", s.ControlFull.Load()},
		{"drop_rule", s.DropRule.Load()},
		{"closed", s.Closed.Load()},
		{"encode", s.Encode.Load()},
	}
}

// dropSend counts one discarded send under its cause and in the total.
func (s *TCPStats) dropSend(cause *atomic.Uint64) {
	cause.Add(1)
	s.SendDropped.Add(1)
}

// TCP is a real network transport: each node is a separate process,
// messages are wire-encoded, length-prefix framed, and carried over
// per-peer TCP connections. It satisfies netsim.Transport, so the
// engine stack runs over it unchanged; from / to are cluster node ids
// and only the local node may send or receive in this process.
//
// Outbound connections are owned by per-peer goroutines that dial with
// exponential backoff, drain a bounded write queue, and redial on any
// error. Inbound connections are handshake-verified and their frames
// decoded and delivered in arrival order through a single delivery
// goroutine, which an ExecTransport hands on to its Loop.
type TCP struct {
	cfg   TCPConfig
	local netsim.NodeID
	n     int
	ln    net.Listener

	mu      sync.Mutex
	handler netsim.Handler
	drop    []bool // per-peer drop rule: partitions without killing conns
	closed  bool
	// lastData is the frame of the last broadcast.Data encoded. The
	// broadcaster pushes each one to every peer in turn, and (origin,
	// seq) names one message for good, so the peers' data queues share
	// one frame; a frame is never written once queued.
	lastData dataFrame

	peers   []*tcpPeer
	deliver chan tcpInbound
	stop    chan struct{}
	wg      sync.WaitGroup

	stats TCPStats
}

type tcpInbound struct {
	from    netsim.NodeID
	payload any
}

// dataFrame is the encoding of the broadcast.Data (origin, seq).
type dataFrame struct {
	origin netsim.NodeID
	seq    uint64
	frame  []byte
}

// tcpPeer owns the outbound connection to one remote node. Its writer
// drains ctl (frames sent once) before q (broadcast frames).
type tcpPeer struct {
	id   netsim.NodeID
	addr string
	q    chan []byte
	ctl  chan []byte

	connected atomic.Bool

	mu   sync.Mutex
	conn net.Conn // current outbound conn, for Close to interrupt writes
}

// NewTCP starts the transport: it listens for inbound connections and
// begins dialing every peer. Peers may come up in any order; sends to
// not-yet-connected peers queue until the dial succeeds or the queue
// fills.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	n := len(cfg.Addrs)
	if n == 0 {
		return nil, errors.New("rtnet: TCP needs at least one address")
	}
	if int(cfg.Local) < 0 || int(cfg.Local) >= n {
		return nil, fmt.Errorf("rtnet: local node %d outside cluster of %d", cfg.Local, n)
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = 1024
	}
	if cfg.DialBackoffMin <= 0 {
		cfg.DialBackoffMin = 50 * time.Millisecond
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = 2 * time.Second
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Local])
		if err != nil {
			return nil, fmt.Errorf("rtnet: listen %s: %w", cfg.Addrs[cfg.Local], err)
		}
	}
	t := &TCP{
		cfg:     cfg,
		local:   cfg.Local,
		n:       n,
		ln:      ln,
		drop:    make([]bool, n),
		peers:   make([]*tcpPeer, n),
		deliver: make(chan tcpInbound, cfg.WriteQueue),
		stop:    make(chan struct{}),
	}
	for id := 0; id < n; id++ {
		if netsim.NodeID(id) == t.local {
			continue
		}
		p := &tcpPeer{
			id:   netsim.NodeID(id),
			addr: cfg.Addrs[id],
			q:    make(chan []byte, cfg.WriteQueue),
			ctl:  make(chan []byte, controlQueue),
		}
		t.peers[id] = p
		t.wg.Add(1)
		go t.runPeer(p)
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.deliverLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful with
// ephemeral ports).
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// N reports the cluster size.
func (t *TCP) N() int { return t.n }

// Stats exposes the transport counters.
func (t *TCP) Stats() *TCPStats { return &t.stats }

// SetHandler installs the delivery callback. Only the local node has a
// handler in this process; installing one for a remote id panics, as it
// would silently never fire.
func (t *TCP) SetHandler(node netsim.NodeID, h netsim.Handler) {
	if node != t.local {
		panic(fmt.Sprintf("rtnet: SetHandler(%d) on TCP transport of node %d", node, t.local))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// SetPeerDrop installs (or clears) a drop rule: while set, frames to
// and from the peer are discarded even though connections stay up. This
// is the partition lever for availability experiments — symmetric
// enough for the paper's scenarios because each side filters inbound
// frames by the same rule.
func (t *TCP) SetPeerDrop(peer netsim.NodeID, drop bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(peer) >= 0 && int(peer) < t.n {
		t.drop[peer] = drop
	}
}

// Send wire-encodes payload and queues it to the peer — broadcast
// messages on the data queue, everything else on the control queue.
// A broadcast.Data sent to one peer after another is encoded once.
// From must be the local node. Send never waits on the network: sends
// to dropped or saturated peers are discarded, matching netsim's
// best-effort contract, and counted by cause.
func (t *TCP) Send(from, to netsim.NodeID, payload any) {
	if from != t.local {
		panic(fmt.Sprintf("rtnet: Send from %d on TCP transport of node %d", from, t.local))
	}
	if int(to) < 0 || int(to) >= t.n {
		return
	}
	t.mu.Lock()
	closed, rule, last := t.closed, t.drop[to], t.lastData
	t.mu.Unlock()
	switch {
	case closed:
		t.stats.dropSend(&t.stats.Closed)
		return
	case rule:
		t.stats.dropSend(&t.stats.DropRule)
		return
	}
	if to == t.local {
		// Self-sends skip the codec but use the same delivery queue, so
		// ordering relative to remote arrivals is preserved.
		select {
		case t.deliver <- tcpInbound{from: from, payload: payload}:
		case <-t.stop:
		}
		return
	}
	var frame []byte
	d, isData := payload.(broadcast.Data)
	if isData && last.frame != nil && d.Origin == last.origin && d.Seq == last.seq {
		frame = last.frame
	} else {
		var err error
		if frame, err = wire.EncodeFrame(payload); err != nil {
			t.stats.dropSend(&t.stats.Encode)
			return
		}
		if isData {
			t.mu.Lock()
			t.lastData = dataFrame{origin: d.Origin, seq: d.Seq, frame: frame}
			t.mu.Unlock()
		}
	}
	q, full := t.peers[to].ctl, &t.stats.ControlFull
	if broadcast.Resendable(payload) {
		q, full = t.peers[to].q, &t.stats.QueueFull
	}
	select {
	case q <- frame:
		return
	default:
	}
	// A full queue usually has a writer that is runnable but not running:
	// the first send readied it on this goroutine's processor, and a loop
	// pass that never blocks (a burst of commits, each pushing a frame)
	// keeps it there until the runtime preempts the pass. Yield once so
	// it drains the queue; drop only if the queue is still full — the
	// peer is not keeping up, or the writer waits on a processor this
	// goroutine cannot hand over (one the collector is marking on).
	runtime.Gosched()
	select {
	case q <- frame:
	default:
		t.stats.dropSend(full)
	}
}

// Reachable reports this process's local view: for links involving the
// local node, whether the outbound connection is up and no drop rule is
// set; for remote-remote links (which this process cannot observe), it
// optimistically reports true unless a drop rule names either end.
func (t *TCP) Reachable(a, b netsim.NodeID) bool {
	if a == b {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.drop[a] || t.drop[b] {
		return false
	}
	other := netsim.NodeID(-1)
	switch {
	case a == t.local:
		other = b
	case b == t.local:
		other = a
	default:
		return true
	}
	p := t.peers[other]
	return p != nil && p.connected.Load()
}

// Close shuts the transport down: the listener and all connections are
// closed and every transport goroutine is joined. After Close returns
// no handler invocation begins (deliveries an ExecTransport queued on
// its Loop are the loop's to finish or drop).
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	t.ln.Close()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	t.wg.Wait()
}

// runPeer dials, handshakes, and drains the write queue for one peer,
// redialing with exponential backoff after any error.
func (t *TCP) runPeer(p *tcpPeer) {
	defer t.wg.Done()
	backoff := t.cfg.DialBackoffMin
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialBackoffMax)
		if err != nil {
			t.stats.DialErrors.Add(1)
			select {
			case <-t.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > t.cfg.DialBackoffMax {
				backoff = t.cfg.DialBackoffMax
			}
			continue
		}
		t.stats.Dials.Add(1)
		backoff = t.cfg.DialBackoffMin
		p.mu.Lock()
		p.conn = conn
		p.mu.Unlock()
		p.connected.Store(true)
		t.writeLoop(p, conn)
		p.connected.Store(false)
		conn.Close()
	}
}

// writeLoop sends the handshake and then frames from the queues until
// an error or shutdown. Frames are batched: after one blocking receive
// it drains whatever else is queued before flushing. Each frame is
// taken from the control queue if it holds one, so a backlog of
// broadcast data never delays a lock request or a 2PC vote by more
// than the frame being written.
func (t *TCP) writeLoop(p *tcpPeer, conn net.Conn) {
	bw := bufio.NewWriter(conn)
	hello := append([]byte{}, tcpMagic[:]...)
	hello = append(hello, tcpVersion)
	hello = binary.AppendUvarint(hello, uint64(t.local))
	if _, err := bw.Write(hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for {
		frame := p.next()
		if frame == nil {
			select {
			case <-t.stop:
				return
			case frame = <-p.ctl:
			case frame = <-p.q:
			}
		}
		for ; frame != nil; frame = p.next() {
			if _, err := bw.Write(frame); err != nil {
				t.stats.ConnErrors.Add(1)
				return
			}
			t.stats.FramesSent.Add(1)
			t.stats.BytesSent.Add(uint64(len(frame)))
		}
		if err := bw.Flush(); err != nil {
			t.stats.ConnErrors.Add(1)
			return
		}
	}
}

// next takes a queued frame without waiting, control first; nil when
// both queues are empty.
func (p *tcpPeer) next() []byte {
	select {
	case f := <-p.ctl:
		return f
	default:
	}
	select {
	case f := <-p.q:
		return f
	default:
		return nil
	}
}

// acceptLoop admits inbound connections and spawns a reader per
// connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			default:
			}
			// Transient accept error (e.g. EMFILE): brief pause, retry.
			t.stats.ConnErrors.Add(1)
			select {
			case <-t.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		t.stats.ConnsAccepted.Add(1)
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop verifies the handshake, then decodes and delivers frames
// until the connection errors or the transport stops. Every input is
// untrusted: the handshake gates the protocol, frame lengths are capped
// before allocation, and decode errors kill the connection (a desynced
// stream cannot be resynchronized).
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// Interrupt blocking reads at shutdown.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-t.stop:
			conn.Close()
		case <-stopDone:
		}
	}()
	br := bufio.NewReader(conn)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if [4]byte(magic[:4]) != tcpMagic || magic[4] != tcpVersion {
		t.stats.ConnErrors.Add(1)
		return
	}
	id, err := binary.ReadUvarint(br)
	if err != nil || id >= uint64(t.n) || netsim.NodeID(id) == t.local {
		t.stats.ConnErrors.Add(1)
		return
	}
	from := netsim.NodeID(id)
	// Each frame is decoded before the next is read, into values that do
	// not alias it, so one buffer and one decoder serve the connection.
	dec := wire.NewDecoder()
	var buf []byte
	for {
		// A declared length over wire.MaxFrameDefault kills the
		// connection before any allocation.
		frame, err := wire.ReadFrame(br, buf, wire.MaxFrameDefault)
		if err != nil {
			if err != io.EOF {
				t.stats.ConnErrors.Add(1)
			}
			return
		}
		t.stats.FramesRecv.Add(1)
		t.stats.BytesRecv.Add(uint64(len(frame)))
		payload, err := dec.Decode(frame)
		if err != nil {
			t.stats.RecvDropped.Add(1)
			return
		}
		buf = frame[:0]
		t.mu.Lock()
		dropped := t.closed || t.drop[from]
		t.mu.Unlock()
		if dropped {
			t.stats.RecvDropped.Add(1)
			continue
		}
		select {
		case t.deliver <- tcpInbound{from: from, payload: payload}:
		case <-t.stop:
			return
		}
	}
}

// deliverLoop invokes the handler in arrival order. To run handlers on
// an engine's scheduler goroutine instead, wrap the transport in an
// ExecTransport.
func (t *TCP) deliverLoop() {
	defer t.wg.Done()
	for {
		var in tcpInbound
		select {
		case <-t.stop:
			return
		case in = <-t.deliver:
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h == nil {
			t.stats.RecvDropped.Add(1)
			continue
		}
		h(in.from, in.payload)
	}
}

// Compile-time check that TCP satisfies the transport contract.
var _ netsim.Transport = (*TCP)(nil)
