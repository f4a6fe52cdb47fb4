package core

import (
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/storage"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// This file implements the engine-side mechanics of agent movement
// (Section 4.4): stream-position carrying, fragment-snapshot
// installation, and the no-preparation protocol's M0 message with
// missing-transaction recovery (Section 4.4.3). The protocols
// themselves — who calls what and when — live in package agentmove.

// SetMoveBlocked marks a fragment as mid-move at this node: new update
// transactions are rejected with ErrAgentMoving until unblocked. The
// old home node sets this before handing off.
func (n *Node) SetMoveBlocked(f fragments.FragmentID, blocked bool) {
	n.stream(f).moveBlocked = blocked
}

// FenceMoving aborts every in-flight update transaction of fragment f
// at this node with ErrAgentMoving. The departing home node calls it
// at the start of a prepared move (after SetMoveBlocked), because a
// transaction that has not committed by then must never commit here:
// its sequence number would collide with the stream the new home takes
// over — the with-data snapshot and the carried sequence number capture
// the stream position at move start, and the majority reconstruction
// bounds only transactions already committed. For a transaction still
// awaiting majority acknowledgments, the abort also broadcasts the
// command discarding its prepared quasi-transaction at remote nodes.
func (n *Node) FenceMoving(f fragments.FragmentID) {
	for _, t := range n.activeSnapshot() {
		if t.spec.Fragment == f && !t.finished {
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KMoveFence, Txn: t.id, Frag: f})
			}
			n.abortBlocked(t, ErrAgentMoving)
		}
	}
}

// InstallSnapshot installs a fragment snapshot transported out-of-band
// with the agent (move-with-data, Section 4.4.2A: the agent carries "a
// copy of the fragment stored at X ... in place of the copy of the
// fragment at site Y") and fast-forwards the local stream position so
// that the new home continues the single uninterrupted sequence.
func (n *Node) InstallSnapshot(f fragments.FragmentID, snap map[fragments.ObjectID]storage.Version, pos txn.FragPos) {
	st := n.stream(f)
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KMoveInstall, Frag: f, Pos: pos})
	}
	n.store.InstallFragmentSnapshot(f, snap)
	if st.last.Less(pos) {
		st.last = pos
	}
	// Anything buffered at or below the snapshot position is stale now.
	for p := range st.pending {
		if !st.last.Less(p) {
			delete(st.pending, p)
		}
	}
	n.notifyStreamWaiters(st)
	n.drainStream(f, st)
}

// BeginNoPrepEpoch starts a new epoch for fragment f at this node (the
// new home after an unprepared move) and broadcasts the M0 message of
// Section 4.4.3 carrying the old-epoch prefix installed here. The node
// enters recovery mode: old-epoch stragglers that arrive later — by
// broadcast or forwarded by other nodes under rule B(2) — are
// repackaged into new-epoch transactions (rule A(2)).
func (n *Node) BeginNoPrepEpoch(f fragments.FragmentID) {
	st := n.stream(f)
	oldLast := st.last
	newEpoch := oldLast.Epoch + 1
	installed := n.installedInEpoch(f, oldLast.Epoch)
	st.recovering = true
	st.oldEpoch = oldLast.Epoch
	st.oldInstalled = oldLast.Seq
	st.last = txn.FragPos{Epoch: newEpoch, Seq: 0}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KMoveEpoch, Frag: f, Seq: newEpoch, Pos: oldLast})
	}
	n.bcast.Send(m0Msg{
		Fragment: f, NewEpoch: newEpoch, OldLast: oldLast,
		Installed: installed, NewHome: n.id,
	})
	n.notifyStreamWaiters(st)
	n.drainStream(f, st)
}

// installedInEpoch lists, in installation order, the quasi-transactions
// of fragment f's given epoch that this node has installed, read back
// from the store's log. A transaction's id names the node it committed
// at, which is the quasi-transaction's home.
func (n *Node) installedInEpoch(f fragments.FragmentID, epoch uint64) []txn.Quasi {
	var out []txn.Quasi
	for _, rec := range n.store.Log() {
		if rec.Fragment == f && rec.Pos.Epoch == epoch {
			out = append(out, txn.Quasi{
				Txn: rec.Txn, Fragment: f, Pos: rec.Pos,
				Home: rec.Txn.Origin, Writes: rec.Writes, Stamp: rec.Stamp,
			})
		}
	}
	return out
}

// handleM0 processes an M0 announcement at every other node: install
// any old-epoch transactions the node is missing from the carried
// prefix (rule B(1)), then switch epochs and start forwarding
// stragglers to the new home (rule B(2)).
func (n *Node) handleM0(m m0Msg) {
	if m.NewHome == n.id {
		return // our own announcement
	}
	st := n.stream(m.Fragment)
	if m.NewEpoch <= st.last.Epoch {
		return // stale announcement
	}
	// Rule B(1): fill gaps from the carried prefix.
	inst := make([]txn.Quasi, len(m.Installed))
	copy(inst, m.Installed)
	sort.Slice(inst, func(i, j int) bool { return inst[i].Pos.Less(inst[j].Pos) })
	for _, q := range inst {
		if q.Pos.Epoch == st.last.Epoch && q.Pos.Seq > st.last.Seq {
			st.pending[q.Pos] = q
		}
	}
	n.drainStream(m.Fragment, st)
	// Switch epochs once no installation is parked on locks.
	n.performSwitch(m.Fragment, st, m)
}

// performSwitch moves the stream to the new epoch. If a
// quasi-transaction is still parked on locks, the switch retries after
// it installs (installQuasi calls drainStream, which re-runs waiters).
func (n *Node) performSwitch(f fragments.FragmentID, st *streamState, m m0Msg) {
	if st.applying {
		// Rare: wait for the in-flight installation, then switch.
		st.waiters = append(st.waiters, func() { n.performSwitch(f, st, m) })
		return
	}
	if m.NewEpoch <= st.last.Epoch {
		return // already switched
	}
	st.forward = true
	st.forwardTo = m.NewHome
	st.oldEpoch = st.last.Epoch
	st.oldInstalled = st.last.Seq
	st.last = txn.FragPos{Epoch: m.NewEpoch, Seq: 0}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KEpochSwitch, Frag: f,
			Seq: m.NewEpoch, Peer: m.NewHome, HasPeer: true})
	}
	// Old-epoch quasi-transactions buffered but never applied (gaps the
	// prefix did not cover) become stragglers: forward them (rule B(2)).
	var stale []txn.FragPos
	for p := range st.pending {
		if p.Epoch < m.NewEpoch {
			stale = append(stale, p)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Less(stale[j]) })
	for _, p := range stale {
		q := st.pending[p]
		delete(st.pending, p)
		if p.Epoch == st.oldEpoch && p.Seq > st.oldInstalled {
			n.cl.stats.QuasiForwarded.Add(1)
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KQuasiForward, Txn: q.Txn,
					Frag: f, Pos: p, Peer: m.NewHome, HasPeer: true})
			}
			n.cl.tr.Send(n.id, m.NewHome, forwardMsg{Q: q})
		}
	}
	n.notifyStreamWaiters(st)
	n.drainStream(f, st)
}

// handleForwarded processes a straggler forwarded by another node under
// rule B(2).
func (n *Node) handleForwarded(m forwardMsg) {
	st := n.stream(m.Q.Fragment)
	if st.recovering {
		n.recoverMissing(m.Q.Fragment, st, m.Q)
	}
}

// recoverMissing implements rule A(2) at the new home node: a missing
// old-epoch transaction is stripped of updates already overwritten by
// more recent transactions (by timestamp), repackaged under the next
// new-epoch sequence number, installed locally, and re-broadcast as a
// regular quasi-transaction. The cluster's OnRecovered hook then gets a
// chance to issue corrective actions ("if after T_k' runs, a flight is
// overbooked, then cancel one or more reservations").
func (n *Node) recoverMissing(f fragments.FragmentID, st *streamState, q txn.Quasi) {
	if q.Pos.Epoch != st.oldEpoch || q.Pos.Seq <= st.oldInstalled {
		return // duplicate of something installed before the move
	}
	if st.recovered[q.Txn] {
		return // already repackaged (arrived by both broadcast and forward)
	}
	st.recovered[q.Txn] = true
	var kept, dropped []txn.WriteOp
	for _, w := range q.Writes {
		ver, known := n.store.GetVersion(w.Object)
		if known && ver.Stamp >= q.Stamp {
			dropped = append(dropped, w)
		} else {
			kept = append(kept, w)
		}
	}
	n.cl.stats.MissingRecovered.Add(1)
	ru := RecoveredUpdate{Fragment: f, Original: q, Kept: kept, Dropped: dropped}
	if len(kept) > 0 {
		n.nextTxnSeq++
		newID := txn.ID{Origin: n.id, Seq: n.nextTxnSeq}
		ru.NewID = newID
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KRecover, Txn: q.Txn,
				Other: newID, Frag: f, Pos: q.Pos, Arg: int64(len(kept))})
		}
		pos := st.last.Next()
		now := n.cl.sched.Now()
		nq := txn.Quasi{Txn: newID, Fragment: f, Pos: pos, Home: n.id, Writes: kept, Stamp: now}
		st.last = pos
		n.store.Apply(newID, f, pos, kept, now)
		if n.cl.rec != nil {
			n.cl.rec.Record(history.TxnRecord{
				ID: newID, Type: f, UpdateFragment: f, Pos: pos,
				Writes: sortedWriteObjects(kept), Node: n.id, Commit: now,
			})
		}
		n.bcast.Send(nq)
		if n.cl.onQuasiApplied != nil {
			n.cl.onQuasiApplied(n.id, nq)
		}
		n.notifyStreamWaiters(st)
	}
	if n.cl.onRecovered != nil {
		n.cl.onRecovered(ru)
	}
}
