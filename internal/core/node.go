package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"fragdb/internal/broadcast"
	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/storage"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// Wire message types (beyond the broadcast layer's own).
type (
	// m0Msg is the special message of Section 4.4.3 announcing an
	// unprepared agent move: the new home node's identity, the new
	// epoch, and the old-epoch prefix it had installed at move time.
	m0Msg struct {
		Fragment fragments.FragmentID
		NewEpoch uint64
		// OldLast is the last old-epoch position installed at the new
		// home before the move (the paper's T_i).
		OldLast txn.FragPos
		// Installed carries the old-epoch quasi-transactions themselves
		// so receivers can fill gaps (rule B(1)).
		Installed []txn.Quasi
		// NewHome is where stragglers must be forwarded (rule B(2)).
		NewHome netsim.NodeID
	}

	// forwardMsg carries a missing old-epoch quasi-transaction to the
	// moved agent's new home (rule B(2)).
	forwardMsg struct {
		Q txn.Quasi
	}

	// lockReqMsg asks the receiving node (an agent's home) for a shared
	// lock on an object it controls, under the Section 4.1 option.
	lockReqMsg struct {
		Txn    txn.ID
		Object fragments.ObjectID
		From   netsim.NodeID
	}

	// lockGrantMsg grants a remote read lock, carrying the
	// authoritative current value and version.
	lockGrantMsg struct {
		Txn     txn.ID
		Object  fragments.ObjectID
		Value   any
		Known   bool // object had a value
		Version storage.Version
		// From is the serving node, to which the release must be sent.
		From netsim.NodeID
	}

	// lockDenyMsg refuses a remote read lock (deadlock victim).
	lockDenyMsg struct {
		Txn    txn.ID
		Object fragments.ObjectID
	}

	// lockReleaseMsg releases every lock the transaction holds at the
	// receiving node.
	lockReleaseMsg struct {
		Txn txn.ID
	}

	// prepareMsg is phase one of the Section 4.4.1 majority commit: the
	// quasi-transaction is buffered, not applied, and acknowledged.
	prepareMsg struct {
		Q txn.Quasi
	}

	// ackMsg acknowledges a prepareMsg back to the home node.
	ackMsg struct {
		Txn  txn.ID
		From netsim.NodeID
	}

	// commitCmdMsg is phase two: apply the buffered quasi-transaction.
	commitCmdMsg struct {
		Txn      txn.ID
		Fragment fragments.FragmentID
	}

	// abortCmdMsg cancels a prepared quasi-transaction that failed to
	// assemble a majority.
	abortCmdMsg struct {
		Txn      txn.ID
		Fragment fragments.FragmentID
	}

	// posQueryMsg asks a node for its current stream position of a
	// fragment (used by the majority move protocol of Section 4.4.1).
	posQueryMsg struct {
		ID       uint64
		Fragment fragments.FragmentID
		From     netsim.NodeID
	}

	// posReplyMsg answers a posQueryMsg.
	posReplyMsg struct {
		ID       uint64
		Fragment fragments.FragmentID
		Pos      txn.FragPos
		From     netsim.NodeID
	}

	// agentMovedMsg announces a bare token handoff of a fully
	// commutative agent over the reliable broadcast: every receiver
	// repoints the agent's tokens at the new home. Commutative
	// fragments make this safe without stream preparation (Section
	// 4.4.2A): their updates carry node-composed positions and install
	// unordered with duplicate suppression, so no prefix agreement is
	// needed. It is the movement protocol of deployed nodes, where the
	// full agentmove protocols cannot run (they drive both endpoints'
	// engines in-process).
	agentMovedMsg struct {
		Agent   fragments.AgentID
		NewHome netsim.NodeID
	}
)

// streamState tracks one fragment's update stream at one node.
type streamState struct {
	// last is the position of the last update installed locally.
	last txn.FragPos
	// pending buffers out-of-order or future-epoch quasi-transactions.
	pending map[txn.FragPos]txn.Quasi
	// applying is true while a quasi-transaction is parked on locks; the
	// stream must not advance past it.
	applying bool
	// forward mode (rule B(2)): old-epoch stragglers with positions
	// beyond oldInstalled are forwarded to forwardTo instead of applied.
	forward      bool
	forwardTo    netsim.NodeID
	oldEpoch     uint64
	oldInstalled uint64

	// recovering marks the new home node after an unprepared move: it
	// repackages old-epoch stragglers (rule A(2)).
	recovering bool
	// recovered remembers original transaction ids already repackaged.
	recovered map[txn.ID]bool

	// seen tracks applied quasi-transactions of commutative fragments
	// (which are deduplicated by identity rather than by position).
	seen map[txn.ID]bool

	// prepared buffers majority-commit quasi-transactions awaiting the
	// commit command, keyed by originating transaction.
	prepared map[txn.ID]txn.Quasi

	// moveBlocked refuses new update transactions while the agent is
	// mid-move (set by agentmove protocols).
	moveBlocked bool

	// waiters are callbacks run whenever the stream advances (used by
	// move-with-sequence-number to wait for a prefix).
	waiters []func()

	// applied is the labeled registry's applies cell for the label
	// (fragment, appliedHome), so an install skips the map lookup that
	// resolving the label costs; a move re-resolves it.
	applied     *metrics.Counter
	appliedHome netsim.NodeID
}

// appliesAt returns the stream's applies counter for quasi-transactions
// homed at home.
func (st *streamState) appliesAt(reg *metrics.Registry, f fragments.FragmentID, home netsim.NodeID) metrics.Counter {
	if st.applied == nil || st.appliedHome != home {
		c := reg.Applies.At(metrics.Label{Frag: f, Node: home})
		st.applied, st.appliedHome = &c, home
	}
	return *st.applied
}

// Node is one site's database engine. Its host gives it a clock, a
// transport, a per-operation cost, a store and a recorder; everything
// else it reads from the schema its process shares.
type Node struct {
	id    netsim.NodeID
	sh    *schema
	sched *simtime.Scheduler
	net   netsim.Transport
	// opCost is the virtual time each read or write takes once its lock
	// is held. Zero answers a free lock inline.
	opCost simtime.Duration
	// rec audits the run; nil on a deployed node.
	rec   *history.Recorder
	store *storage.Store
	locks *lock.Manager
	bcast *broadcast.Broadcaster
	// tr is the node's flight recorder; nil when tracing is disabled
	// (every emission site checks before constructing an event).
	tr *trace.Recorder

	nextTxnSeq uint64
	active     map[txn.ID]*activeTxn
	streams    map[fragments.FragmentID]*streamState

	// quasiWaiters tracks quasi-transactions blocked on write locks.
	quasiWaiters map[txn.ID]*quasiWaiter

	// remoteHeld tracks remote transactions holding locks here (option
	// 4.1 server side), with their lease-expiry events.
	remoteHeld map[txn.ID]*remoteHolder
	// remoteQueued maps a remotely-requesting transaction to the
	// requester node, for replying when its queued lock is granted.
	remoteQueued map[txn.ID]remoteQueue

	// posQueries maps outstanding position-query ids to their reply
	// callbacks.
	nextQueryID uint64
	posQueries  map[uint64]func(from netsim.NodeID, pos txn.FragPos)

	// multi-fragment 2PC state: coordinator rounds by coordinator txn
	// id, prepared parts by (mid, fragment) and by lock-holder id.
	multiCoords map[txn.ID]*multiCoord
	multiParts  map[partKey]*multiPart
	multiByPid  map[txn.ID]*multiPart

	// snapJournal records snapshot installations durably (a real system
	// would fsync the installed state): like the WAL and the broadcast
	// journal, it survives SimulateCrashRestart, which replays it before
	// the retained broadcast tail.
	snapJournal []snapJournalEntry

	// appHandler, when set, receives transport payloads no engine
	// demultiplexer claims — the extension point application layers
	// (the workload's operation forwarding) use to exchange their own
	// wire messages. Runs on the engine context like every other
	// transport delivery.
	appHandler func(from netsim.NodeID, payload any)
}

type remoteHolder struct {
	from    netsim.NodeID
	leaseEv *simtime.Event
}

type remoteQueue struct {
	from netsim.NodeID
	obj  fragments.ObjectID
}

func newNode(sh *schema, id netsim.NodeID, sched *simtime.Scheduler, tr netsim.Transport,
	opCost simtime.Duration, store *storage.Store, rec *history.Recorder) *Node {
	n := &Node{
		id:           id,
		sh:           sh,
		sched:        sched,
		net:          tr,
		opCost:       opCost,
		rec:          rec,
		store:        store,
		active:       make(map[txn.ID]*activeTxn),
		streams:      make(map[fragments.FragmentID]*streamState),
		remoteHeld:   make(map[txn.ID]*remoteHolder),
		remoteQueued: make(map[txn.ID]remoteQueue),
		posQueries:   make(map[uint64]func(netsim.NodeID, txn.FragPos)),
	}
	if sh.cfg.TraceCap > 0 {
		n.tr = trace.NewRecorder(id, sh.cfg.TraceCap, sched.Now)
	}
	n.locks = n.newLockManager()
	n.bcast = broadcast.New(id, tr, sched,
		broadcast.Config{
			GossipInterval: int64(sh.cfg.GossipInterval),
			Compaction:     sh.cfg.Compaction,
			CompactRetain:  sh.cfg.CompactRetain,
			PeerLiveRounds: sh.cfg.PeerLiveRounds,
			Snapshot:       nodeSnapshotter{n},
			Metrics:        sh.bstats,
			SizeOf:         wire.Size,
			Trace:          n.tr,
		},
		n.handleBroadcast)
	tr.SetHandler(id, n.handleTransport)
	return n
}

// newLockManager builds the node's lock table with the observer that
// counts queued acquisitions in the labeled registry and, when tracing is
// enabled, the blocked-path observer that maps lock-manager occurrences
// onto flight-recorder events. Crash recovery rebuilds the table through
// the same constructor so the observers survive restarts.
func (n *Node) newLockManager() *lock.Manager {
	m := lock.NewManager()
	if n.tr.Enabled() {
		m.AddObserver(func(id txn.ID, o fragments.ObjectID, mode lock.Mode, ev lock.TraceEvent) {
			kind := trace.KLockWait
			switch ev {
			case lock.TraceGrant:
				kind = trace.KLockGrant
			case lock.TraceDeny:
				kind = trace.KLockDeadlock
			}
			n.tr.Emit(trace.Event{Kind: kind, Txn: id, Obj: o, Note: mode.String()})
		})
	}
	m.AddObserver(func(id txn.ID, o fragments.ObjectID, mode lock.Mode, ev lock.TraceEvent) {
		if ev != lock.TraceWait {
			return
		}
		if f, ok := n.store.FragmentOf(o); ok {
			n.sh.reg.IncLockWait(f, id.Origin)
		}
	})
	return m
}

// ID returns the node's id.
func (n *Node) ID() netsim.NodeID { return n.id }

// Store exposes the node's local database copy (read-only use).
func (n *Node) Store() *storage.Store { return n.store }

// LockTableEntries reports how many objects have an entry in the node's
// lock table. Safe from any goroutine; it walks the table under the
// manager's mutex, so call it at scrape rates.
func (n *Node) LockTableEntries() int { return n.locks.TableEntries() }

// Broadcaster exposes the node's broadcast endpoint.
func (n *Node) Broadcaster() *broadcast.Broadcaster { return n.bcast }

// stream returns (creating if needed) the stream state for a fragment.
func (n *Node) stream(f fragments.FragmentID) *streamState {
	st, ok := n.streams[f]
	if !ok {
		st = &streamState{
			pending:   make(map[txn.FragPos]txn.Quasi),
			recovered: make(map[txn.ID]bool),
			prepared:  make(map[txn.ID]txn.Quasi),
			seen:      make(map[txn.ID]bool),
		}
		n.streams[f] = st
	}
	return st
}

// StreamPos reports the last installed position of a fragment's update
// stream at this node.
func (n *Node) StreamPos(f fragments.FragmentID) txn.FragPos {
	return n.stream(f).last
}

// handleTransport demultiplexes raw transport deliveries.
func (n *Node) handleTransport(from netsim.NodeID, payload any) {
	if n.bcast.HandleMessage(from, payload) {
		return
	}
	switch m := payload.(type) {
	case lockReqMsg:
		n.serveLockRequest(m)
	case lockGrantMsg:
		n.handleLockGrant(m)
	case lockDenyMsg:
		n.handleLockDeny(m)
	case lockReleaseMsg:
		n.handleLockRelease(m)
	case forwardMsg:
		n.handleForwarded(m)
	case ackMsg:
		n.handleAck(m)
	case multiPrepareMsg:
		n.handleMultiPrepare(m)
	case multiVoteMsg:
		n.handleMultiVote(m)
	case multiCommitMsg:
		n.handleMultiCommit(m)
	case multiAbortMsg:
		n.handleMultiAbort(m)
	case posQueryMsg:
		n.net.Send(n.id, m.From, posReplyMsg{
			ID: m.ID, Fragment: m.Fragment, Pos: n.stream(m.Fragment).last, From: n.id,
		})
	case posReplyMsg:
		if fn, ok := n.posQueries[m.ID]; ok {
			fn(m.From, m.Pos)
		}
	default:
		if n.appHandler != nil {
			n.appHandler(from, m)
		}
	}
}

// SetAppHandler installs the application-layer handler for transport
// payloads the engine itself does not recognize. Payload types need a
// wire codec for real deployments (see wiretypes.go's contract).
func (n *Node) SetAppHandler(fn func(from netsim.NodeID, payload any)) {
	n.appHandler = fn
}

// SendApp sends an application payload to a peer node over the
// cluster's transport; it is delivered to the peer's app handler.
func (n *Node) SendApp(to netsim.NodeID, payload any) {
	n.net.Send(n.id, to, payload)
}

// handleBroadcast consumes messages delivered by the reliable broadcast
// in per-origin FIFO order.
func (n *Node) handleBroadcast(origin netsim.NodeID, seq uint64, payload any) {
	switch m := payload.(type) {
	case txn.Quasi:
		n.ingestQuasi(m)
	case m0Msg:
		n.handleM0(m)
	case prepareMsg:
		n.handlePrepare(origin, m)
	case commitCmdMsg:
		n.handleCommitCmd(m)
	case abortCmdMsg:
		n.handleAbortCmd(m)
	case agentMovedMsg:
		n.applyAgentMoved(m)
	}
}

// applyAgentMoved repoints a commutative agent's tokens at its new
// home. MoveAgent is idempotent, so the announcing node's own delivery
// (which already applied the move locally) is harmless. A process
// whose token map never learned the agent (not possible today: schemas
// are static) ignores the handoff.
func (n *Node) applyAgentMoved(m agentMovedMsg) {
	_ = n.sh.tokens.MoveAgent(m.Agent, m.NewHome)
}

// AnnounceAgentMove hands a fully commutative agent to a new home via
// a broadcast token handoff — a deployed node's movement protocol,
// where the §4.4 in-process protocols cannot run. It
// requires every fragment the agent holds to be commutative: their
// updates install unordered with node-composed positions, so the
// handoff needs no stream preparation. In-flight submissions racing
// the handoff are rejected with ErrNotHome at the old home and retried
// by the forwarding layer against the token map's new answer.
func (n *Node) AnnounceAgentMove(agent fragments.AgentID, to netsim.NodeID) error {
	fs := n.sh.tokens.FragmentsOf(agent)
	if len(fs) == 0 {
		return fmt.Errorf("core: unknown agent %q", agent)
	}
	for _, f := range fs {
		if !n.sh.IsCommutative(f) {
			return fmt.Errorf("core: agent %q holds non-commutative fragment %q; use an agentmove protocol", agent, f)
		}
	}
	if home, ok := n.sh.tokens.Home(agent); ok && home == to {
		return fmt.Errorf("core: agent %q already homed at node %d", agent, to)
	}
	n.bcast.Send(agentMovedMsg{Agent: agent, NewHome: to})
	n.applyAgentMoved(agentMovedMsg{Agent: agent, NewHome: to})
	return nil
}

// ingestQuasi feeds a quasi-transaction into its fragment's stream,
// applying in position order and buffering gaps.
func (n *Node) ingestQuasi(q txn.Quasi) {
	if !n.sh.IsReplica(q.Fragment, n.id) {
		// Partial replication: this node relays the broadcast stream but
		// installs nothing.
		return
	}
	st := n.stream(q.Fragment)
	if n.sh.IsCommutative(q.Fragment) {
		if st.seen[q.Txn] {
			return
		}
		st.seen[q.Txn] = true
		n.applyQuasiUnordered(q.Fragment, st, q)
		return
	}
	switch {
	case q.Pos.Epoch < st.last.Epoch:
		// Old-epoch straggler: a missing transaction (Section 4.4.3).
		n.handleStraggler(st, q)
	case q.Pos.Epoch > st.last.Epoch:
		// Future epoch: the M0 announcement has not arrived yet; buffer.
		st.pending[q.Pos] = q
	case q.Pos.Seq <= st.last.Seq:
		// Duplicate (e.g. the home node's own local delivery).
	default:
		st.pending[q.Pos] = q
		n.drainStream(q.Fragment, st)
	}
}

// drainStream applies buffered quasi-transactions that are next in
// order, as long as none parks on locks.
func (n *Node) drainStream(f fragments.FragmentID, st *streamState) {
	for !st.applying {
		next := st.last.Next()
		q, ok := st.pending[next]
		if !ok {
			return
		}
		delete(st.pending, next)
		n.applyQuasi(f, st, q)
	}
}

// handleStraggler deals with an old-epoch quasi-transaction arriving
// after the fragment moved epochs.
func (n *Node) handleStraggler(st *streamState, q txn.Quasi) {
	if st.recovering {
		n.recoverMissing(q.Fragment, st, q)
		return
	}
	if st.forward && q.Pos.Epoch == st.oldEpoch && q.Pos.Seq > st.oldInstalled {
		// Rule B(2): do not process; forward to the new home.
		n.sh.stats.QuasiForwarded.Add(1)
		n.sh.reg.IncForward(q.Fragment, q.Home)
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KQuasiForward, Txn: q.Txn,
				Frag: q.Fragment, Pos: q.Pos, Peer: st.forwardTo, HasPeer: true})
		}
		n.net.Send(n.id, st.forwardTo, forwardMsg{Q: q})
	}
	// Otherwise: duplicate of something installed before the switch.
}

// notifyStreamWaiters runs and clears stream-advance callbacks.
func (n *Node) notifyStreamWaiters(st *streamState) {
	if len(st.waiters) == 0 {
		return
	}
	ws := st.waiters
	st.waiters = nil
	for _, w := range ws {
		w()
	}
}

// QueryStreamPos asks every other node for its current stream position
// of fragment f. Replies (from nodes reachable now or later) invoke
// onReply; the caller counts them and applies its own quorum and
// timeout policy. EndQuery stops the collection.
func (n *Node) QueryStreamPos(f fragments.FragmentID, onReply func(from netsim.NodeID, pos txn.FragPos)) (queryID uint64) {
	n.nextQueryID++
	id := n.nextQueryID
	n.posQueries[id] = onReply
	for p := 0; p < n.sh.cfg.N; p++ {
		if netsim.NodeID(p) == n.id {
			continue
		}
		n.net.Send(n.id, netsim.NodeID(p), posQueryMsg{ID: id, Fragment: f, From: n.id})
	}
	return id
}

// EndQuery stops delivering replies for a query started with
// QueryStreamPos.
func (n *Node) EndQuery(id uint64) { delete(n.posQueries, id) }

// WaitForStream invokes fn once the fragment's stream at this node has
// reached at least pos (immediately if it already has). Used by the
// move-with-sequence-number protocol (Section 4.4.2B).
func (n *Node) WaitForStream(f fragments.FragmentID, pos txn.FragPos, fn func()) {
	st := n.stream(f)
	var check func()
	check = func() {
		if !pos.Less(st.last) && pos != st.last {
			st.waiters = append(st.waiters, check)
			return
		}
		fn()
	}
	check()
}

// sortedWriteObjects returns a quasi-transaction's write set in
// deterministic order.
func sortedWriteObjects(ws []txn.WriteOp) []fragments.ObjectID {
	out := make([]fragments.ObjectID, 0, len(ws))
	for _, w := range ws {
		out = append(out, w.Object)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writesInObjectOrder returns ws in sorted object order: ws itself when
// it already is (finalWrites emits a home commit's writes so), else a
// sorted copy.
func writesInObjectOrder(ws []txn.WriteOp) []txn.WriteOp {
	byObject := func(a, b txn.WriteOp) int { return cmp.Compare(a.Object, b.Object) }
	if slices.IsSortedFunc(ws, byObject) {
		return ws
	}
	out := slices.Clone(ws)
	slices.SortFunc(out, byObject)
	return out
}
