package core

import (
	"fragdb/internal/netsim"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// This file implements the Section 4.4.1 majority commit protocol:
// "Before a transaction can commit at the agent's home node, the
// corresponding quasi-transaction is sent out to the rest of the nodes,
// and acknowledgments are requested. The transaction commits only after
// acknowledgments have been received from a majority of the nodes. Then
// a command is broadcast to commit the quasi-transaction at remote
// nodes."
//
// The protocol makes every committed transaction durable at a majority,
// so an agent moving to any node can reconstruct the full update stream
// by contacting a majority (see agentmove.MoveMajority). The price is
// that update transactions block — and eventually time out — when no
// majority is reachable, which experiment E8 measures.

// majority returns the number of nodes constituting a majority.
func (sh *schema) majority() int { return sh.cfg.N/2 + 1 }

// startMajority begins the prepare phase after the transaction program
// completed successfully.
func (n *Node) startMajority(t *activeTxn, q txn.Quasi) {
	t.waitingMajority = true
	t.pendingQuasi = q
	t.acks = map[netsim.NodeID]bool{n.id: true}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KMajorityPrepare, Txn: t.id,
			Frag: q.Fragment, Pos: q.Pos})
	}
	n.bcast.Send(prepareMsg{Q: q})
	n.checkMajority(t)
}

// handlePrepare buffers the quasi-transaction and acknowledges to the
// home node. The home node's own local delivery is ignored (it counted
// itself already).
func (n *Node) handlePrepare(origin netsim.NodeID, m prepareMsg) {
	if m.Q.Home == n.id {
		return
	}
	st := n.stream(m.Q.Fragment)
	st.prepared[m.Q.Txn] = m.Q
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KPrepareBuffered, Txn: m.Q.Txn,
			Frag: m.Q.Fragment, Pos: m.Q.Pos, Peer: m.Q.Home, HasPeer: true})
	}
	n.net.Send(n.id, m.Q.Home, ackMsg{Txn: m.Q.Txn, From: n.id})
}

// handleAck counts an acknowledgment at the home node.
func (n *Node) handleAck(m ackMsg) {
	t, ok := n.active[m.Txn]
	if !ok || !t.waitingMajority {
		return
	}
	t.acks[m.From] = true
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KMajorityAck, Txn: t.id,
			Peer: m.From, HasPeer: true, Seq: uint64(len(t.acks))})
	}
	n.checkMajority(t)
}

// checkMajority commits the transaction once a majority has
// acknowledged its quasi-transaction.
func (n *Node) checkMajority(t *activeTxn) {
	if !t.waitingMajority || len(t.acks) < n.sh.majority() {
		return
	}
	// The fragment may have switched epochs — a no-preparation move's M0
	// (Section 4.4.3) — while acknowledgments were in flight. The
	// prepared position belongs to the dead epoch: installing it would
	// regress the stream below the switch point and wedge every
	// new-epoch quasi-transaction behind the gap. Nothing has been
	// externalized yet (remotes hold the quasi only in their prepared
	// buffers), so decide abort, as FenceMoving does for prepared moves.
	if !n.sh.IsCommutative(t.pendingQuasi.Fragment) &&
		t.pendingQuasi.Pos.Epoch != n.stream(t.pendingQuasi.Fragment).last.Epoch {
		n.abortBlocked(t, ErrAgentMoving)
		return
	}
	t.waitingMajority = false
	n.commitLocal(t, t.pendingQuasi, false)
}

// handleCommitCmd applies a previously prepared quasi-transaction.
func (n *Node) handleCommitCmd(m commitCmdMsg) {
	st := n.stream(m.Fragment)
	q, ok := st.prepared[m.Txn]
	if !ok {
		return // home node's own delivery, or already applied
	}
	delete(st.prepared, m.Txn)
	n.ingestQuasi(q)
}

// handleAbortCmd discards a prepared quasi-transaction whose home node
// gave up on assembling a majority.
func (n *Node) handleAbortCmd(m abortCmdMsg) {
	st := n.stream(m.Fragment)
	if _, ok := st.prepared[m.Txn]; ok && n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KPreparedDrop, Txn: m.Txn, Frag: m.Fragment})
	}
	delete(st.prepared, m.Txn)
}
