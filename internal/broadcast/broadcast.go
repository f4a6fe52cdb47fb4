// Package broadcast implements the reliable broadcast mechanism the
// paper requires of its substrate (Section 2.2): "(1) all messages are
// eventually delivered; (2) messages broadcast by one of the nodes are
// processed at all other nodes in the same order as they were sent."
//
// The implementation is an epidemic (anti-entropy) protocol over the
// unreliable point-to-point transport of package netsim:
//
//   - Every broadcast message carries (origin, seq) with per-origin
//     sequence numbers starting at 1.
//   - A sender optimistically pushes new messages to all peers; pushes
//     lost to partitions are repaired later.
//   - Every node stores the in-order log of every origin's stream it
//     has delivered, and periodically sends a digest (its contiguous
//     prefix per origin) to its peers. A peer that has more of any
//     stream responds with the missing messages. Because any node can
//     serve any stream, repair works across multi-hop topologies and
//     even when the origin itself is down or partitioned away.
//   - Receivers deliver each origin's stream strictly in order,
//     buffering out-of-order arrivals (up to a bounded window; anything
//     beyond it is dropped and refilled by anti-entropy) until the gap
//     fills.
//
// With Config.Compaction, memory stays bounded: the digests double as
// acknowledgments, every node computes per origin a stable watermark —
// the prefix delivered by every live peer — and truncates the log below
// it (minus a retained slack of CompactRetain entries). A peer whose
// digest falls behind a stream's truncation horizon can no longer be
// repaired entry by entry; it is caught up by a SnapshotOffer carrying
// the application state (Config.Snapshot) together with the prefix
// vector that state reflects, after which normal repair ships the
// retained tail. Truncation preserves guarantee (1): the watermark only
// passes prefixes every live peer has acknowledged, and a dead or
// silent peer re-enters through the snapshot path, which is equivalent
// to having replayed the truncated prefix.
//
// Together these give eventual, per-origin-FIFO delivery across
// arbitrary partition/heal schedules, which is exactly what the
// quasi-transaction propagation of Section 2.2 needs.
package broadcast

import (
	"sort"
	"sync"

	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/trace"
)

// Data is a broadcast payload in flight, tagged with its origin stream
// position.
type Data struct {
	Origin  netsim.NodeID
	Seq     uint64
	Payload any
}

// DataBatch carries a contiguous run of one origin's stream in a single
// transport message: Payloads[i] has sequence number Start+i. Senders
// coalesce optimistic pushes into batches (Config.BatchFlushDelay) and
// ship anti-entropy repair as contiguous ranges, amortizing per-message
// transport and codec cost across many payloads.
type DataBatch struct {
	Origin   netsim.NodeID
	Start    uint64
	Payloads []any
}

// Digest advertises, per origin, the highest contiguous sequence number
// the sender has delivered. It requests repair (the receiver sends
// anything newer), suppresses redundant retransmission, and — under
// compaction — acknowledges the prefix so peers may truncate below the
// watermark acked by all live nodes.
//
// Delta marks an incremental digest: it lists only streams whose prefix
// changed since the last digest sent to that peer, and the receiver
// merges it into its previous view. A full digest (Delta false)
// replaces the previous view, so a sender that lost its state — a
// restarted node advertising from scratch — correctly retracts stale
// high prefixes.
type Digest struct {
	Have  map[netsim.NodeID]uint64
	Delta bool
}

// SnapshotOffer catches up a peer that has fallen behind the compaction
// horizon: State is the serving node's application snapshot (produced
// by its Snapshotter) and Have the per-origin delivered-prefix vector
// that state reflects. The receiver fast-forwards the covered streams
// to Have without redelivering the skipped messages — the snapshot
// stands in for them — and the retained log tail then arrives through
// the normal digest/Data repair path.
type SnapshotOffer struct {
	Have  map[netsim.NodeID]uint64
	State any
}

// Resendable reports whether payload is one of the broadcast's own
// transport messages — Data, DataBatch, Digest, SnapshotOffer — which
// anti-entropy sends again if they are lost: the next digest asks for
// missing entries again, and digests and offers recur every round. A
// transport may drop these under pressure; everything else it carries
// is sent once.
func Resendable(payload any) bool {
	switch payload.(type) {
	case Data, DataBatch, Digest, SnapshotOffer:
		return true
	}
	return false
}

// Handler consumes broadcast messages in per-origin FIFO order. The
// broadcaster serializes handler invocations
// and never holds its internal lock while calling, so a handler may
// call back into Send.
type Handler func(origin netsim.NodeID, seq uint64, payload any)

// Snapshotter lets the application participate in snapshot catch-up.
type Snapshotter interface {
	// CaptureState returns the application state reflecting every
	// delivery the handler has processed so far, or ok=false if this
	// node cannot serve snapshots (e.g. it holds only a partial
	// replica). It is called with the broadcaster's lock held and must
	// not call back into the broadcaster.
	CaptureState() (state any, ok bool)
	// InstallState merges a peer's snapshot into the application.
	// snapHave is the per-origin delivered-prefix vector the snapshot
	// reflects; prevHave was the local delivered vector just before the
	// fast-forward. It is invoked from the delivery context, in order
	// with surrounding handler deliveries, without the broadcaster's
	// lock held.
	InstallState(state any, snapHave, prevHave map[netsim.NodeID]uint64)
}

// Timer schedules callbacks. SchedulerTimer is the one implementation:
// the scheduler is virtual in simulation and driven on the wall clock
// by an rtnet.Loop in a deployment.
type Timer interface {
	// AfterFunc arranges for fn to run after roughly d. The returned
	// function cancels the callback if it has not fired.
	AfterFunc(d int64, fn func()) (cancel func())
}

// Tuning defaults, applied when the corresponding Config field is zero.
const (
	// DefaultCompactRetain is the per-stream slack kept below a node's
	// own prefix even when the watermark would allow deeper truncation,
	// so short-lived stragglers repair from the tail instead of
	// triggering snapshot transfers.
	DefaultCompactRetain = 32
	// DefaultPeerLiveRounds is how many consecutive gossip rounds of
	// silence before a peer stops gating the compaction watermark (and
	// will be caught up by snapshot on return).
	DefaultPeerLiveRounds = 4
	// DefaultPendingWindow bounds the out-of-order buffer per origin:
	// arrivals beyond prefix+window are dropped (anti-entropy refills).
	DefaultPendingWindow = 512
	// DefaultBatchMaxCount flushes a pending push batch once it holds
	// this many payloads, regardless of the flush timer.
	DefaultBatchMaxCount = 16
	// DefaultBatchMaxBytes flushes a pending push batch once its
	// payloads measure this many encoded bytes (per Config.SizeOf).
	DefaultBatchMaxBytes = 16 << 10
)

// fullDigestRounds is the delta-digest resync cadence: every this-many
// gossip rounds the full prefix vector is sent instead of the delta,
// bounding how long a peer with lost or stale state can misjudge this
// node's streams.
const fullDigestRounds = 4

// repairWindow caps the payload bytes (measured with Config.SizeOf) that
// one digest's repair ships, summed over streams. It keeps every range
// well inside one wire frame (wire.MaxFrameDefault is 1 MiB), and it
// turns a peer that is far behind into a few rounds of ranges rather
// than one burst its transport's write queue cannot hold.
const repairWindow = 256 << 10

// Config tunes a Broadcaster.
type Config struct {
	// GossipInterval is the anti-entropy period in the Timer's time
	// unit (nanoseconds of virtual or real time). Zero disables the
	// periodic digest (tests drive repair manually via Gossip).
	GossipInterval int64
	// BatchFlushDelay, when positive, enables sender-side batching of
	// optimistic pushes: Send buffers payloads and ships them as one
	// DataBatch per peer when the oldest buffered payload has waited
	// this long (in the Timer's time unit), or sooner when a count/byte
	// threshold trips. Zero keeps the immediate per-payload push. The
	// timer comes from the same Timer as gossip, so simulated runs stay
	// deterministic (no wall-clock on the simulated path).
	BatchFlushDelay int64
	// BatchMaxCount overrides DefaultBatchMaxCount (the payload-count
	// flush threshold; negative disables the count trigger).
	BatchMaxCount int
	// BatchMaxBytes overrides DefaultBatchMaxBytes (the encoded-bytes
	// flush threshold, measured with SizeOf; negative or nil SizeOf
	// disables the byte trigger).
	BatchMaxBytes int
	// Compaction enables acked-prefix log truncation and snapshot
	// catch-up. Without it, every stream is retained in full.
	Compaction bool
	// CompactRetain overrides DefaultCompactRetain (negative: no slack).
	CompactRetain int
	// PeerLiveRounds overrides DefaultPeerLiveRounds.
	PeerLiveRounds int
	// PendingWindow overrides DefaultPendingWindow (negative: unbounded,
	// the pre-compaction behavior).
	PendingWindow int
	// Snapshot supplies application state for snapshot catch-up. With
	// Compaction and a nil Snapshot, offers carry a nil State and only
	// fast-forward the broadcast prefixes (pure-broadcast tests).
	Snapshot Snapshotter
	// Metrics, if non-nil, receives the compaction gauges and counters.
	// One value may be shared by all nodes of a cluster.
	Metrics *metrics.Broadcast
	// SizeOf, if non-nil, measures payloads for the LogBytes gauge
	// (e.g. wire.Size). Nil skips byte accounting.
	SizeOf func(payload any) int
	// Trace, if non-nil, records housekeeping events (compaction,
	// snapshot offers and installs, pending-window drops) in the owning
	// node's flight recorder. The recorder never calls back into the
	// broadcaster, so emitting under the broadcaster's lock is safe.
	Trace *trace.Recorder
}

func (c Config) compactRetain() uint64 {
	switch {
	case c.CompactRetain > 0:
		return uint64(c.CompactRetain)
	case c.CompactRetain < 0:
		return 0
	default:
		return DefaultCompactRetain
	}
}

func (c Config) peerLiveRounds() uint64 {
	if c.PeerLiveRounds > 0 {
		return uint64(c.PeerLiveRounds)
	}
	return DefaultPeerLiveRounds
}

func (c Config) pendingWindow() uint64 {
	switch {
	case c.PendingWindow > 0:
		return uint64(c.PendingWindow)
	case c.PendingWindow < 0:
		return 0 // unbounded
	default:
		return DefaultPendingWindow
	}
}

func (c Config) batchMaxCount() int {
	switch {
	case c.BatchMaxCount > 0:
		return c.BatchMaxCount
	case c.BatchMaxCount < 0:
		return 0 // count trigger disabled
	default:
		return DefaultBatchMaxCount
	}
}

func (c Config) batchMaxBytes() int {
	switch {
	case c.BatchMaxBytes > 0:
		return c.BatchMaxBytes
	case c.BatchMaxBytes < 0:
		return 0 // byte trigger disabled
	default:
		return DefaultBatchMaxBytes
	}
}

// stream is one origin's log as retained locally: entries[i] carries
// sequence number base+i+1; seqs 1..base have been compacted away (or
// superseded by an installed snapshot).
type stream struct {
	base    uint64
	entries []any
}

func (s *stream) prefix() uint64 { return s.base + uint64(len(s.entries)) }

// delivery is one queued handler invocation (or snapshot installation).
type delivery struct {
	origin  netsim.NodeID
	seq     uint64
	payload any
	install *installJob
}

// installJob defers a Snapshotter.InstallState call onto the delivery
// queue so it runs in order with handler deliveries.
type installJob struct {
	state any
	have  map[netsim.NodeID]uint64
	prev  map[netsim.NodeID]uint64
}

// Broadcaster is one node's endpoint of the reliable broadcast. All
// methods are safe for concurrent use; the event loop that normally
// drives it, simulated or an rtnet.Loop, pays only an uncontended
// mutex. Handler invocations are serialized through an
// internal delivery queue and made without the lock held, so handlers
// may re-enter Send.
type Broadcaster struct {
	node    netsim.NodeID
	tr      netsim.Transport
	timer   Timer
	cfg     Config
	handler Handler

	mu      sync.Mutex
	nextSeq uint64 // last seq assigned to our own stream

	// logs[o] is origin o's retained stream.
	logs map[netsim.NodeID]*stream
	// pending[o] buffers out-of-order messages: seq -> payload.
	pending map[netsim.NodeID]map[uint64]any
	// delivered[o] is the highest seq the handler has processed (or a
	// snapshot has superseded); it trails prefix only while deliveries
	// are queued.
	delivered map[netsim.NodeID]uint64

	// peerHave records each peer's digest view (its acked prefixes),
	// maintained across digests: full digests replace it, delta digests
	// merge into it, reusing the map allocation. peerSeen is the gossip
	// round the last digest arrived in; offeredAt (stored as round+1)
	// throttles snapshot offers to one per peer per round.
	peerHave  map[netsim.NodeID]map[netsim.NodeID]uint64
	peerSeen  map[netsim.NodeID]uint64
	offeredAt map[netsim.NodeID]uint64
	round     uint64

	// digestSent[p] is the prefix vector last advertised to peer p,
	// updated in place each round; delta digests omit streams unchanged
	// against it.
	digestSent map[netsim.NodeID]map[netsim.NodeID]uint64

	// batch buffers this node's own payloads awaiting a coalesced push:
	// batch[i] has seq batchStart+i, batchBytes their measured size.
	batch      []any
	batchStart uint64
	batchBytes int
	stopFlush  func()

	deliverQ   []delivery
	delivering bool

	// outbox queues outbound transport messages composed under mu; they
	// ship (post) only after the lock is released. rtnet's TCP transport
	// applies backpressure — a Send may block — and a blocked send under
	// mu would freeze every other broadcaster operation, including the
	// HandleMessage path a synchronous transport delivers on (halint's
	// lockedsend analyzer enforces this discipline).
	outbox []outMsg

	stopGossip func()
	stopped    bool
}

// outMsg is one queued outbound transport message.
type outMsg struct {
	to  netsim.NodeID
	msg any
}

// New creates a broadcaster for node on the given transport. The
// handler receives every message from every origin (including the
// node's own sends, which are delivered locally and immediately, so all
// nodes — origin included — process each stream in the same order).
func New(node netsim.NodeID, tr netsim.Transport, timer Timer, cfg Config, h Handler) *Broadcaster {
	b := &Broadcaster{
		node:      node,
		tr:        tr,
		timer:     timer,
		cfg:       cfg,
		handler:   h,
		logs:      make(map[netsim.NodeID]*stream),
		pending:   make(map[netsim.NodeID]map[uint64]any),
		delivered: make(map[netsim.NodeID]uint64),
		peerHave:  make(map[netsim.NodeID]map[netsim.NodeID]uint64),
		peerSeen:  make(map[netsim.NodeID]uint64),
		offeredAt: make(map[netsim.NodeID]uint64),

		digestSent: make(map[netsim.NodeID]map[netsim.NodeID]uint64),
	}
	if cfg.GossipInterval > 0 && timer != nil {
		b.mu.Lock()
		b.scheduleGossip()
		b.mu.Unlock()
	}
	return b
}

// Node returns the owning node id.
func (b *Broadcaster) Node() netsim.NodeID { return b.node }

// Stop cancels the periodic gossip and any pending batch flush.
func (b *Broadcaster) Stop() {
	b.mu.Lock()
	b.stopped = true
	stop := b.stopGossip
	flush := b.stopFlush
	b.stopFlush = nil
	b.mu.Unlock()
	if stop != nil {
		stop()
	}
	if flush != nil {
		flush()
	}
}

// scheduleGossip arms the next gossip round. Caller holds b.mu:
// gossipTick re-arms under the lock, so the lock is what orders the
// writes of stopGossip.
func (b *Broadcaster) scheduleGossip() {
	b.stopGossip = b.timer.AfterFunc(b.cfg.GossipInterval, b.gossipTick)
}

func (b *Broadcaster) gossipTick() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.gossipLocked()
	b.scheduleGossip()
	out := b.takeOutbox()
	b.mu.Unlock()
	b.post(out)
}

// stream returns (creating if needed) origin's retained log.
func (b *Broadcaster) stream(origin netsim.NodeID) *stream {
	s, ok := b.logs[origin]
	if !ok {
		s = &stream{}
		b.logs[origin] = s
	}
	return s
}

// Send broadcasts payload: it is appended to this node's own stream,
// delivered locally, and pushed to every peer — immediately, or through
// the coalescing batch buffer when Config.BatchFlushDelay is set. It
// returns the message's sequence number in the node's stream.
func (b *Broadcaster) Send(payload any) uint64 {
	b.mu.Lock()
	b.nextSeq++
	seq := b.nextSeq
	b.appendEntry(b.node, payload)
	if b.cfg.BatchFlushDelay > 0 {
		b.bufferPush(seq, payload)
	} else {
		b.pushAll(Data{Origin: b.node, Seq: seq, Payload: payload}, 1)
	}
	b.drainDeliveries()
	out := b.takeOutbox()
	b.mu.Unlock()
	b.post(out)
	return seq
}

// queueSend records an outbound message for posting once the lock is
// released. Caller holds mu.
func (b *Broadcaster) queueSend(to netsim.NodeID, msg any) {
	b.outbox = append(b.outbox, outMsg{to: to, msg: msg})
}

// takeOutbox detaches the queued outbound messages for posting. Caller
// holds mu and must hand the result to post after unlocking.
func (b *Broadcaster) takeOutbox() []outMsg {
	out := b.outbox
	b.outbox = nil
	return out
}

// post ships detached outbound messages in queue order. The caller must
// NOT hold mu: the transport may block.
func (b *Broadcaster) post(out []outMsg) {
	for _, m := range out {
		b.tr.Send(b.node, m.to, m.msg)
	}
}

// sendData queues one Data or DataBatch message carrying n payloads to a
// peer, maintaining the amortization counters (messages sent vs.
// payloads carried). Caller holds mu.
func (b *Broadcaster) sendData(to netsim.NodeID, msg any, n int) {
	b.queueSend(to, msg)
	if m := b.cfg.Metrics; m != nil {
		m.DataSends.Add(1)
		m.PayloadsSent.Add(uint64(n))
	}
}

// pushAll sends msg (carrying n payloads) to every peer. Caller holds
// mu.
func (b *Broadcaster) pushAll(msg any, n int) {
	for p := 0; p < b.tr.N(); p++ {
		if netsim.NodeID(p) == b.node {
			continue
		}
		b.sendData(netsim.NodeID(p), msg, n)
	}
}

// bufferPush queues one of our own payloads for a coalesced DataBatch
// push. The buffer flushes when the count or byte threshold trips;
// otherwise the flush timer — armed when the buffer goes non-empty, on
// the same Timer as gossip so simulated runs stay deterministic — ships
// it within BatchFlushDelay. Caller holds mu.
func (b *Broadcaster) bufferPush(seq uint64, payload any) {
	if len(b.batch) == 0 {
		b.batchStart = seq
		b.batchBytes = 0
		if b.timer != nil {
			b.stopFlush = b.timer.AfterFunc(b.cfg.BatchFlushDelay, b.flushTick)
		}
	}
	b.batch = append(b.batch, payload)
	if b.cfg.SizeOf != nil {
		b.batchBytes += b.cfg.SizeOf(payload)
	}
	if c := b.cfg.batchMaxCount(); c > 0 && len(b.batch) >= c {
		b.flushLocked()
		return
	}
	if bb := b.cfg.batchMaxBytes(); bb > 0 && b.cfg.SizeOf != nil && b.batchBytes >= bb {
		b.flushLocked()
	}
}

func (b *Broadcaster) flushTick() {
	b.mu.Lock()
	if !b.stopped {
		b.flushLocked()
	}
	out := b.takeOutbox()
	b.mu.Unlock()
	b.post(out)
}

// flushLocked ships the buffered own-stream payloads as one DataBatch
// per peer (a plain Data when a single payload is pending) and cancels
// the armed flush timer. Caller holds mu.
func (b *Broadcaster) flushLocked() {
	if stop := b.stopFlush; stop != nil {
		b.stopFlush = nil
		stop() // no-op if the timer is what brought us here
	}
	if len(b.batch) == 0 {
		return
	}
	var msg any
	if len(b.batch) == 1 {
		msg = Data{Origin: b.node, Seq: b.batchStart, Payload: b.batch[0]}
	} else {
		msg = DataBatch{Origin: b.node, Start: b.batchStart, Payloads: b.batch}
	}
	b.pushAll(msg, len(b.batch))
	// The in-flight message aliases the slice; start a fresh one.
	b.batch = nil
	b.batchBytes = 0
}

// appendEntry extends origin's stream by one delivered entry and queues
// its handler invocation. Caller holds mu.
func (b *Broadcaster) appendEntry(origin netsim.NodeID, payload any) {
	s := b.stream(origin)
	s.entries = append(s.entries, payload)
	seq := s.prefix()
	b.deliverQ = append(b.deliverQ, delivery{origin: origin, seq: seq, payload: payload})
	if m := b.cfg.Metrics; m != nil {
		m.LogEntries.Add(1)
		if b.cfg.SizeOf != nil {
			m.LogBytes.Add(int64(b.cfg.SizeOf(payload)))
		}
	}
}

// drainDeliveries invokes the handler (and deferred snapshot installs)
// for queued deliveries in order. The delivering flag elects a single
// drainer; mu is released around each callback, so handlers may
// re-enter Send — their payloads enqueue and are delivered when the
// outer handler returns, preserving per-origin FIFO. Caller holds mu;
// mu is held again on return. The unlock-around-callback discipline is
// what keeps the PR 2 re-entrancy deadlock fixed; halint's lockedsend
// analyzer checks this function under entry-held mu.
func (b *Broadcaster) drainDeliveries() {
	if b.delivering {
		return
	}
	b.delivering = true
	for len(b.deliverQ) > 0 {
		d := b.deliverQ[0]
		b.deliverQ = b.deliverQ[1:]
		// Queued sends ship before the callback runs, preserving the
		// pushes-precede-local-delivery wire order of the inline-send era.
		out := b.takeOutbox()
		if d.install != nil {
			snap := b.cfg.Snapshot
			b.mu.Unlock()
			b.post(out)
			snap.InstallState(d.install.state, d.install.have, d.install.prev)
			b.mu.Lock()
			continue
		}
		b.mu.Unlock()
		b.post(out)
		b.handler(d.origin, d.seq, d.payload)
		b.mu.Lock()
		if b.delivered[d.origin] < d.seq {
			b.delivered[d.origin] = d.seq
		}
	}
	b.delivering = false
}

// Prefix reports the highest contiguous sequence number delivered for
// the given origin.
func (b *Broadcaster) Prefix(origin netsim.NodeID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.logs[origin]; ok {
		return s.prefix()
	}
	return 0
}

// Base reports origin's compaction horizon: the sequence number below
// which the stream has been truncated (or superseded by a snapshot).
// Retained entries cover seqs Base+1..Prefix; zero means the full
// stream is retained.
func (b *Broadcaster) Base(origin netsim.NodeID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.logs[origin]; ok {
		return s.base
	}
	return 0
}

// Log returns the retained delivered payloads of origin's stream, seqs
// Base+1..Prefix (the full stream when compaction never truncated it).
func (b *Broadcaster) Log(origin netsim.NodeID) []any {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.logs[origin]
	if !ok {
		return nil
	}
	out := make([]any, len(s.entries))
	copy(out, s.entries)
	return out
}

// LogSize reports the total retained log entries across all streams
// (the quantity the compaction horizon bounds).
func (b *Broadcaster) LogSize() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, s := range b.logs {
		total += len(s.entries)
	}
	return total
}

// PendingSize reports buffered out-of-order messages across all
// origins (bounded per origin by Config.PendingWindow).
func (b *Broadcaster) PendingSize() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, buf := range b.pending {
		total += len(buf)
	}
	return total
}

// Gossip sends this node's digest to every peer once (and, under
// compaction, advances the round counter and truncates acked prefixes).
// The periodic timer calls it automatically when GossipInterval is set.
func (b *Broadcaster) Gossip() {
	b.mu.Lock()
	b.gossipLocked()
	out := b.takeOutbox()
	b.mu.Unlock()
	b.post(out)
}

func (b *Broadcaster) gossipLocked() {
	b.flushLocked() // ship buffered pushes before advertising their seqs
	b.round++
	if b.cfg.Compaction {
		b.compactLocked()
	}
	// Every fullDigestRounds-th round sends the complete prefix vector;
	// in between, each peer gets only the streams that changed since the
	// digest it last received (often an empty map, which still serves as
	// the liveness heartbeat for the compaction watermark). The full
	// vector is built once and shared across peers — in-flight messages
	// alias it, so it is never mutated after this round.
	full := b.round%fullDigestRounds == 0
	var fullHave map[netsim.NodeID]uint64
	for p := 0; p < b.tr.N(); p++ {
		id := netsim.NodeID(p)
		if id == b.node {
			continue
		}
		sent := b.digestSent[id]
		var d Digest
		if sent == nil || full {
			if fullHave == nil {
				fullHave = make(map[netsim.NodeID]uint64, len(b.logs))
				for o, s := range b.logs {
					fullHave[o] = s.prefix()
				}
			}
			d = Digest{Have: fullHave}
		} else {
			delta := make(map[netsim.NodeID]uint64)
			for o, s := range b.logs {
				if pf := s.prefix(); sent[o] != pf {
					delta[o] = pf
				}
			}
			d = Digest{Have: delta, Delta: true}
		}
		b.queueSend(id, d)
		if sent == nil {
			sent = make(map[netsim.NodeID]uint64, len(b.logs))
			b.digestSent[id] = sent
		}
		for o, s := range b.logs {
			sent[o] = s.prefix()
		}
	}
}

// compactLocked truncates every stream below its stable watermark: the
// minimum prefix acked (via digests) by all live peers, kept at least
// CompactRetain entries below our own prefix. Peers silent for more
// than PeerLiveRounds gossip rounds stop gating the watermark — they
// are presumed dead or partitioned and will be caught up by snapshot.
// Peers never heard from are conservatively treated as live until the
// silence threshold passes, so startup does not truncate under them.
func (b *Broadcaster) compactLocked() {
	liveRounds := b.cfg.peerLiveRounds()
	retain := b.cfg.compactRetain()
	var live []netsim.NodeID
	for p := 0; p < b.tr.N(); p++ {
		id := netsim.NodeID(p)
		if id == b.node {
			continue
		}
		if b.round-b.peerSeen[id] <= liveRounds {
			live = append(live, id)
		}
	}
	// Sorted origins: compaction order decides the trace-event order, and
	// the flight recorder must be byte-identical under a fixed seed.
	origins := make([]netsim.NodeID, 0, len(b.logs))
	for o := range b.logs {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		s := b.logs[o]
		if len(s.entries) == 0 {
			continue
		}
		pf := s.prefix()
		wm := pf
		for _, p := range live {
			if h := b.peerHave[p][o]; h < wm {
				wm = h
			}
		}
		limit := uint64(0)
		if pf > retain {
			limit = pf - retain
		}
		if wm > limit {
			wm = limit
		}
		if wm <= s.base {
			continue
		}
		drop := int(wm - s.base)
		if t := b.cfg.Trace; t.Enabled() {
			t.Emit(trace.Event{Kind: trace.KCompact, Peer: o, HasPeer: true,
				Seq: wm, Arg: int64(drop)})
		}
		if m := b.cfg.Metrics; m != nil {
			m.CompactedSeqs.Add(uint64(drop))
			m.LogEntries.Add(-int64(drop))
			if b.cfg.SizeOf != nil {
				var bytes int64
				for _, e := range s.entries[:drop] {
					bytes += int64(b.cfg.SizeOf(e))
				}
				m.LogBytes.Add(-bytes)
			}
		}
		tail := make([]any, len(s.entries)-drop)
		copy(tail, s.entries[drop:])
		s.entries = tail
		s.base = wm
	}
}

// HandleMessage processes a transport delivery addressed to this
// broadcaster. The owner demultiplexes transport traffic and forwards
// Data, Digest, and SnapshotOffer messages here. It reports whether the
// message was a broadcast-protocol message.
func (b *Broadcaster) HandleMessage(from netsim.NodeID, payload any) bool {
	switch m := payload.(type) {
	case Data:
		b.mu.Lock()
		b.receive(m)
		b.drainDeliveries()
		out := b.takeOutbox()
		b.mu.Unlock()
		b.post(out)
		return true
	case DataBatch:
		b.mu.Lock()
		for i, p := range m.Payloads {
			b.receive(Data{Origin: m.Origin, Seq: m.Start + uint64(i), Payload: p})
		}
		b.drainDeliveries()
		out := b.takeOutbox()
		b.mu.Unlock()
		b.post(out)
		return true
	case Digest:
		b.mu.Lock()
		b.repair(from, m)
		b.drainDeliveries()
		out := b.takeOutbox()
		b.mu.Unlock()
		b.post(out)
		return true
	case SnapshotOffer:
		b.mu.Lock()
		b.installOffer(m)
		b.drainDeliveries()
		out := b.takeOutbox()
		b.mu.Unlock()
		b.post(out)
		return true
	}
	return false
}

// receive ingests a Data message, queueing in-order deliveries and
// buffering gaps up to the pending window. Caller holds mu.
func (b *Broadcaster) receive(m Data) {
	s := b.stream(m.Origin)
	prefix := s.prefix()
	switch {
	case m.Seq <= prefix:
		return // duplicate (or below the compaction horizon)
	case m.Seq == prefix+1:
		b.appendEntry(m.Origin, m.Payload)
		b.drainOrigin(m.Origin)
	default:
		if w := b.cfg.pendingWindow(); w > 0 && m.Seq > prefix+w {
			// Beyond the out-of-order window: drop. The sender's digest
			// exchange will re-ship it once the gap closes.
			if t := b.cfg.Trace; t.Enabled() {
				t.Emit(trace.Event{Kind: trace.KPendingDrop,
					Peer: m.Origin, HasPeer: true, Seq: m.Seq})
			}
			if m := b.cfg.Metrics; m != nil {
				m.PendingDropped.Add(1)
			}
			return
		}
		buf, ok := b.pending[m.Origin]
		if !ok {
			buf = make(map[uint64]any)
			b.pending[m.Origin] = buf
		}
		buf[m.Seq] = m.Payload
	}
}

// drainOrigin moves buffered messages that have become contiguous into
// the log, queueing their deliveries. Caller holds mu.
func (b *Broadcaster) drainOrigin(origin netsim.NodeID) {
	buf := b.pending[origin]
	if buf == nil {
		return
	}
	s := b.stream(origin)
	for {
		next := s.prefix() + 1
		payload, ok := buf[next]
		if !ok {
			return
		}
		delete(buf, next)
		b.appendEntry(origin, payload)
	}
}

// repair answers a peer's digest with the contiguous range of messages
// the peer is missing from each stream this node has more of — one
// DataBatch per origin (a plain Data for a single entry) instead of one
// message per sequence number, the ranges together capped at
// repairWindow bytes — recording the digest as the peer's
// acknowledgment for the compaction watermark (full digests replace the
// recorded view, delta digests merge into it). A peer that has fallen
// behind a stream's truncation horizon gets a snapshot offer instead of
// unservable entries. Caller holds mu.
func (b *Broadcaster) repair(from netsim.NodeID, d Digest) {
	have := b.peerHave[from]
	if have == nil {
		have = make(map[netsim.NodeID]uint64, len(d.Have))
		b.peerHave[from] = have
	} else if !d.Delta {
		clear(have) // full digest: retract streams the peer no longer lists
	}
	for o, h := range d.Have {
		have[o] = h
	}
	b.peerSeen[from] = b.round

	origins := make([]netsim.NodeID, 0, len(b.logs))
	for o := range b.logs {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	behind := false
	budget := repairWindow
	for _, o := range origins {
		s := b.logs[o]
		theirs := have[o]
		if theirs < s.base {
			// The missing prefix is gone here; entry-by-entry repair
			// cannot help this peer for this stream.
			behind = true
			continue
		}
		hi := s.prefix()
		if o == b.node && len(b.batch) > 0 && b.batchStart-1 < hi {
			// Our buffered tail is about to ship via flush; serving it
			// here too would just double-send it.
			hi = b.batchStart - 1
		}
		if theirs >= hi {
			continue
		}
		lo := theirs - s.base
		// Full slice expression: the in-flight message aliases the log,
		// and later appends to s.entries must not grow into it.
		payloads := b.fitWindow(s.entries[lo:hi-s.base:hi-s.base], &budget)
		switch len(payloads) {
		case 0:
		case 1:
			b.sendData(from, Data{Origin: o, Seq: theirs + 1, Payload: payloads[0]}, 1)
		default:
			b.sendData(from, DataBatch{Origin: o, Start: theirs + 1, Payloads: payloads}, len(payloads))
		}
	}
	if behind && b.cfg.Compaction {
		b.offerSnapshot(from)
	}
}

// fitWindow returns the longest prefix of entries whose sizes (per
// Config.SizeOf) fit in *budget, and charges it. An entry larger than
// the whole window still ships, alone, while the budget is untouched —
// otherwise it could never be repaired. Without SizeOf nothing is
// measured and every entry fits. Caller holds mu.
func (b *Broadcaster) fitWindow(entries []any, budget *int) []any {
	if b.cfg.SizeOf == nil {
		return entries
	}
	k := 0
	for _, e := range entries {
		sz := b.cfg.SizeOf(e)
		if sz > *budget && (k > 0 || *budget < repairWindow) {
			break
		}
		*budget -= sz
		k++
	}
	return entries[:k:k]
}

// offerSnapshot sends one SnapshotOffer (at most one per peer per
// gossip round) covering this node's delivered prefixes. Caller holds
// mu.
func (b *Broadcaster) offerSnapshot(to netsim.NodeID) {
	if b.offeredAt[to] == b.round+1 {
		return
	}
	b.offeredAt[to] = b.round + 1
	var state any
	if b.cfg.Snapshot != nil {
		st, ok := b.cfg.Snapshot.CaptureState()
		if !ok {
			return // cannot vouch for full state; another replica will
		}
		state = st
	}
	have := make(map[netsim.NodeID]uint64, len(b.logs))
	for o := range b.logs {
		// The application state reflects handler-delivered messages, so
		// advertise the delivered vector, not the (possibly queued-ahead)
		// log prefix.
		have[o] = b.delivered[o]
	}
	b.queueSend(to, SnapshotOffer{Have: have, State: state})
	if t := b.cfg.Trace; t.Enabled() {
		t.Emit(trace.Event{Kind: trace.KSnapOffer, Peer: to, HasPeer: true})
	}
	if m := b.cfg.Metrics; m != nil {
		m.SnapshotsSent.Add(1)
	}
}

// installOffer fast-forwards every stream the offer advances, discards
// superseded retained entries and buffered gaps, and defers the
// application-state installation onto the delivery queue (so it runs in
// order between the deliveries that precede and follow the jump).
// Caller holds mu.
func (b *Broadcaster) installOffer(m SnapshotOffer) {
	advances := false
	for o, h := range m.Have {
		if h > b.stream(o).prefix() {
			advances = true
			break
		}
	}
	if !advances {
		return // stale offer; we caught up through normal repair
	}
	prev := make(map[netsim.NodeID]uint64, len(b.delivered))
	for o, h := range b.delivered {
		prev[o] = h
	}
	origins := make([]netsim.NodeID, 0, len(m.Have))
	for o := range m.Have {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		h := m.Have[o]
		s := b.stream(o)
		if h <= s.prefix() {
			continue // we already have at least this much; keep our log
		}
		if mt := b.cfg.Metrics; mt != nil {
			mt.LogEntries.Add(-int64(len(s.entries)))
			if b.cfg.SizeOf != nil {
				var bytes int64
				for _, e := range s.entries {
					bytes += int64(b.cfg.SizeOf(e))
				}
				mt.LogBytes.Add(-bytes)
			}
		}
		s.base = h
		s.entries = nil
		if b.delivered[o] < h {
			b.delivered[o] = h
		}
		for seq := range b.pending[o] {
			if seq <= h {
				delete(b.pending[o], seq)
			}
		}
	}
	if b.cfg.Snapshot != nil {
		have := make(map[netsim.NodeID]uint64, len(m.Have))
		for o, h := range m.Have {
			have[o] = h
		}
		b.deliverQ = append(b.deliverQ, delivery{
			install: &installJob{state: m.State, have: have, prev: prev},
		})
	}
	if t := b.cfg.Trace; t.Enabled() {
		t.Emit(trace.Event{Kind: trace.KSnapAccept})
	}
	if mt := b.cfg.Metrics; mt != nil {
		mt.SnapshotsInstalled.Add(1)
	}
	// Buffered arrivals just above the new prefix may now be contiguous;
	// their deliveries queue behind the install job, preserving order.
	for _, o := range origins {
		b.drainOrigin(o)
	}
}
