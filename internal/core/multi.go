package core

import (
	"errors"
	"fmt"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// This file implements multi-fragment update transactions. The paper's
// initiation requirement confines each update transaction to one
// fragment, but its Section 2.2 footnote and Conclusions point out the
// generalization: "a semblance of the two-phase commit protocol can be
// used, that involves the agents of all the fragments that are being
// updated."
//
// A multi-fragment transaction runs its program at a coordinator node
// (reads against the coordinator's local replicas), then two-phase
// commits the buffered writes with the current agent home of every
// written fragment:
//
//	prepare: each agent home takes exclusive locks on its fragment's
//	         write set and votes;
//	commit:  each home installs its part as a fresh local transaction
//	         at the next position of its fragment's stream and
//	         broadcasts the quasi-transaction as usual;
//	abort:   locks released, nothing installed anywhere.
//
// Atomicity is per-home at commit; remote replicas see the parts as
// separate quasi-transactions (the per-fragment streams remain the unit
// of propagation, as everywhere else in the system). Participants hold
// prepared locks under a lease (Config.MultiLease) so a crashed or
// partitioned coordinator cannot wedge a fragment forever; the lease is
// deliberately much longer than typical coordinator timeouts, keeping
// the classic 2PC in-doubt window small in simulated time.

// ErrMultiRejected reports that some agent home voted no (deadlock,
// agent mid-move, or not the agent home anymore).
var ErrMultiRejected = errors.New("core: multi-fragment transaction rejected by a participant")

// Multi-fragment wire messages (direct, not broadcast).
type (
	multiPrepareMsg struct {
		MID      txn.ID // coordinator transaction id
		Fragment fragments.FragmentID
		Writes   []txn.WriteOp
		From     netsim.NodeID
	}
	multiVoteMsg struct {
		MID      txn.ID
		Fragment fragments.FragmentID
		OK       bool
		From     netsim.NodeID
	}
	multiCommitMsg struct {
		MID      txn.ID
		Fragment fragments.FragmentID
	}
	multiAbortMsg struct {
		MID      txn.ID
		Fragment fragments.FragmentID
	}
)

// multiCoord is the coordinator-side state of one 2PC round.
type multiCoord struct {
	t     *activeTxn
	parts map[fragments.FragmentID][]txn.WriteOp
	homes map[fragments.FragmentID]netsim.NodeID
	votes map[fragments.FragmentID]bool
}

// multiPart is the participant-side state of one prepared part.
type multiPart struct {
	mid         txn.ID
	f           fragments.FragmentID
	pid         txn.ID // lock-holder id at this node
	writes      []txn.WriteOp
	coordinator netsim.NodeID
	remaining   map[fragments.ObjectID]bool
	voted       bool
	leaseEv     *simtime.Event
}

type partKey struct {
	mid txn.ID
	f   fragments.FragmentID
}

// SubmitMulti runs a multi-fragment update transaction with this node
// as coordinator. The program may write objects of any existing
// fragments (creation of new objects is not supported in multi-fragment
// mode); reads come from this node's local replicas. The transaction
// commits only if every written fragment's agent home votes yes.
func (n *Node) SubmitMulti(spec TxnSpec, done func(TxnResult)) {
	n.cl.stats.Offered.Add(1)
	submitted := n.cl.sched.Now()
	n.cl.sched.After(0, func() { n.startMultiTxn(spec, done, submitted) })
}

func (n *Node) startMultiTxn(spec TxnSpec, done func(TxnResult), submitted simtime.Time) {
	if spec.Fragment != "" {
		n.reject(spec, done, fmt.Errorf("core: SubmitMulti takes no Fragment (writes choose their fragments)"))
		return
	}
	n.begin(spec, done, submitted, true)
}

// startMulti begins the two-phase commit after the program completed.
// Called from finishTxn.
func (n *Node) startMulti(t *activeTxn) {
	writes := t.finalWrites()
	parts := make(map[fragments.FragmentID][]txn.WriteOp)
	for _, w := range writes {
		f, ok := n.cl.cat.FragmentOf(w.Object)
		if !ok {
			n.finalize(t, fmt.Errorf("%w: %q (multi-fragment writes need existing objects)",
				ErrUnknownObject, w.Object), false)
			return
		}
		parts[f] = append(parts[f], w)
	}
	mc := &multiCoord{
		t:     t,
		parts: parts,
		homes: make(map[fragments.FragmentID]netsim.NodeID, len(parts)),
		votes: make(map[fragments.FragmentID]bool, len(parts)),
	}
	// Fragment order is fixed up front: it decides which missing agent
	// aborts the transaction and the order prepares hit the wire, both
	// of which must be stable under a fixed seed.
	fs := sortedFragments(parts)
	for _, f := range fs {
		home, ok := n.cl.tokens.HomeOfFragment(f)
		if !ok {
			n.finalize(t, fmt.Errorf("core: fragment %q has no agent", f), false)
			return
		}
		mc.homes[f] = home
	}
	if n.multiCoords == nil {
		n.multiCoords = make(map[txn.ID]*multiCoord)
	}
	n.multiCoords[t.id] = mc
	t.waitingMulti = true
	for _, f := range fs {
		n.cl.tr.Send(n.id, mc.homes[f], multiPrepareMsg{
			MID: t.id, Fragment: f, Writes: parts[f], From: n.id,
		})
	}
}

// handleMultiPrepare runs at a written fragment's agent home: acquire
// the exclusive locks, then vote.
func (n *Node) handleMultiPrepare(m multiPrepareMsg) {
	vote := func(ok bool) {
		n.cl.tr.Send(n.id, m.From, multiVoteMsg{MID: m.MID, Fragment: m.Fragment, OK: ok, From: n.id})
	}
	home, ok := n.cl.tokens.HomeOfFragment(m.Fragment)
	if !ok || home != n.id || n.stream(m.Fragment).moveBlocked {
		vote(false)
		return
	}
	if n.multiParts == nil {
		n.multiParts = make(map[partKey]*multiPart)
	}
	key := partKey{mid: m.MID, f: m.Fragment}
	if _, dup := n.multiParts[key]; dup {
		return
	}
	n.nextTxnSeq++
	p := &multiPart{
		mid: m.MID, f: m.Fragment,
		pid:         txn.ID{Origin: n.id, Seq: n.nextTxnSeq},
		writes:      m.Writes,
		coordinator: m.From,
		remaining:   make(map[fragments.ObjectID]bool),
	}
	n.multiParts[key] = p
	if n.multiByPid == nil {
		n.multiByPid = make(map[txn.ID]*multiPart)
	}
	n.multiByPid[p.pid] = p
	for _, o := range sortedWriteObjects(m.Writes) {
		granted, err := n.locks.Acquire(p.pid, o, lock.Exclusive)
		if err != nil {
			// Would deadlock: vote no rather than wound (unlike
			// quasi-transactions, a prepared part is not yet committed
			// anywhere and may simply fail).
			n.dropPart(p)
			vote(false)
			return
		}
		if !granted {
			p.remaining[o] = true
		}
	}
	if len(p.remaining) == 0 {
		n.votePart(p)
	}
}

// votePart sends the yes vote and starts the lease.
func (n *Node) votePart(p *multiPart) {
	if p.voted {
		return
	}
	p.voted = true
	lease := n.cl.cfg.MultiLease
	p.leaseEv = n.cl.sched.After(lease, func() {
		// Presumed abort: the coordinator vanished.
		n.dropPart(p)
	})
	n.cl.tr.Send(n.id, p.coordinator, multiVoteMsg{
		MID: p.mid, Fragment: p.f, OK: true, From: n.id,
	})
}

// dropPart releases a part's locks and forgets it.
func (n *Node) dropPart(p *multiPart) {
	if p.leaseEv != nil {
		n.cl.sched.Cancel(p.leaseEv)
	}
	delete(n.multiParts, partKey{mid: p.mid, f: p.f})
	delete(n.multiByPid, p.pid)
	n.onGrants(n.locks.Release(p.pid))
}

// handleMultiVote collects votes at the coordinator.
func (n *Node) handleMultiVote(m multiVoteMsg) {
	mc, ok := n.multiCoords[m.MID]
	if !ok {
		return // already decided (e.g. timed out)
	}
	if !m.OK {
		n.decideMulti(mc, false, ErrMultiRejected)
		return
	}
	mc.votes[m.Fragment] = true
	if len(mc.votes) == len(mc.parts) {
		n.decideMulti(mc, true, nil)
	}
}

// decideMulti finishes the 2PC round: commit or abort everywhere.
func (n *Node) decideMulti(mc *multiCoord, commit bool, cause error) {
	delete(n.multiCoords, mc.t.id)
	mc.t.waitingMulti = false
	for _, f := range sortedFragments(mc.homes) {
		if commit {
			n.cl.tr.Send(n.id, mc.homes[f], multiCommitMsg{MID: mc.t.id, Fragment: f})
		} else {
			n.cl.tr.Send(n.id, mc.homes[f], multiAbortMsg{MID: mc.t.id, Fragment: f})
		}
	}
	if commit {
		// The coordinator's read set is recorded for auditing (its parts
		// are recorded at the participants as they install).
		if n.cl.rec != nil {
			n.cl.rec.Record(history.TxnRecord{
				ID: mc.t.id, ReadOnly: true, Reads: mc.t.reads,
				Node: n.id, Commit: n.cl.sched.Now(),
			})
		}
		n.finalize(mc.t, nil, true)
	} else {
		n.finalize(mc.t, cause, false)
	}
}

// abortMulti is invoked when a waiting coordinator transaction is
// aborted from outside (timeout): broadcast aborts to participants.
func (n *Node) abortMulti(t *activeTxn) {
	mc, ok := n.multiCoords[t.id]
	if !ok {
		return
	}
	delete(n.multiCoords, t.id)
	for _, f := range sortedFragments(mc.homes) {
		n.cl.tr.Send(n.id, mc.homes[f], multiAbortMsg{MID: t.id, Fragment: f})
	}
}

// handleMultiCommit installs a prepared part as a local transaction on
// the fragment's stream.
func (n *Node) handleMultiCommit(m multiCommitMsg) {
	p, ok := n.multiParts[partKey{mid: m.MID, f: m.Fragment}]
	if !ok {
		return // lease expired (presumed abort) or duplicate
	}
	if p.leaseEv != nil {
		n.cl.sched.Cancel(p.leaseEv)
	}
	st := n.stream(p.f)
	pos := st.last.Next()
	now := n.cl.sched.Now()
	q := txn.Quasi{Txn: p.pid, Fragment: p.f, Pos: pos, Home: n.id, Writes: p.writes, Stamp: now}
	st.last = pos
	n.store.Apply(p.pid, p.f, pos, p.writes, now)
	if n.cl.rec != nil {
		n.cl.rec.Record(history.TxnRecord{
			ID: p.pid, Type: p.f, UpdateFragment: p.f, Pos: pos,
			Writes: sortedWriteObjects(p.writes), Node: n.id, Commit: now,
		})
	}
	delete(n.multiParts, partKey{mid: p.mid, f: p.f})
	delete(n.multiByPid, p.pid)
	grants := n.locks.Release(p.pid)
	n.bcast.Send(q)
	n.onGrants(grants)
	if n.cl.onQuasiApplied != nil {
		n.cl.onQuasiApplied(n.id, q)
	}
	n.notifyStreamWaiters(st)
	n.drainStream(p.f, st)
}

// handleMultiAbort discards a prepared part.
func (n *Node) handleMultiAbort(m multiAbortMsg) {
	if p, ok := n.multiParts[partKey{mid: m.MID, f: m.Fragment}]; ok {
		n.dropPart(p)
	}
}

// sortedFragments returns a map's fragment keys in ID order: 2PC
// fan-out and home resolution iterate it so the messages leave in the
// same order every run under a fixed seed.
func sortedFragments[V any](m map[fragments.FragmentID]V) []fragments.FragmentID {
	fs := make([]fragments.FragmentID, 0, len(m))
	for f := range m {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}
