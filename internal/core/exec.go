package core

import (
	"errors"
	"fmt"
	"slices"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// Submit schedules a transaction for execution at this node. The done
// callback (optional) runs when the transaction commits or aborts.
//
// Update transactions are validated against the paper's rules at start
// time: the submitting agent must hold the fragment's token and this
// node must be the agent's home node (a user is "connected to at most
// one node at a time", Section 3.1).
func (n *Node) Submit(spec TxnSpec, done func(TxnResult)) {
	n.sh.stats.Offered.Add(1)
	submitted := n.sched.Now()
	n.sched.After(0, func() { n.startTxn(spec, done, submitted) })
}

// origin resolves the accounting origin of a submission: the explicit
// client origin when the spec carries one, else the executing node.
// The labeled registry's per-(fragment, origin) matrix is what the
// placement controller reads, so forwarded operations must be charged
// to the node they entered at, not the home that executed them.
func (n *Node) origin(spec TxnSpec) netsim.NodeID {
	if spec.OriginSet {
		return spec.Origin
	}
	return n.id
}

// reject refuses a submission before execution begins.
func (n *Node) reject(spec TxnSpec, done func(TxnResult), err error) {
	n.sh.stats.Rejected.Add(1)
	n.sh.stats.Aborted.Add(1)
	n.sh.reg.IncAbort(spec.Fragment, n.origin(spec), "rejected")
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KReject, Frag: spec.Fragment,
			Err: err.Error(), Note: spec.Label})
	}
	if done != nil {
		done(TxnResult{
			Label: spec.Label, Err: err,
			Start: n.sched.Now(), End: n.sched.Now(),
		})
	}
}

func (n *Node) startTxn(spec TxnSpec, done func(TxnResult), submitted simtime.Time) {
	if spec.Fragment != "" {
		if _, ok := n.sh.cat.Fragment(spec.Fragment); !ok {
			n.reject(spec, done, fmt.Errorf("core: unknown fragment %q", spec.Fragment))
			return
		}
		agent, ok := n.sh.tokens.Agent(spec.Fragment)
		if !ok || agent != spec.Agent {
			n.reject(spec, done, ErrNotAgent)
			return
		}
		home, ok := n.sh.tokens.Home(agent)
		if !ok || home != n.id {
			n.reject(spec, done, ErrNotHome)
			return
		}
		if n.stream(spec.Fragment).moveBlocked {
			n.reject(spec, done, ErrAgentMoving)
			return
		}
	}
	n.begin(spec, done, submitted, false)
}

// begin registers a transaction submitted at the given time, arms its
// timeout and runs its program.
func (n *Node) begin(spec TxnSpec, done func(TxnResult), submitted simtime.Time, multi bool) {
	n.nextTxnSeq++
	t := &activeTxn{
		id:    txn.ID{Origin: n.id, Seq: n.nextTxnSeq},
		spec:  spec,
		node:  n,
		multi: multi,
		start: submitted,
		done:  done,
	}
	t.tx.t = t
	n.active[t.id] = t
	if !multi && n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KSubmit, Txn: t.id,
			Frag: spec.Fragment, Note: spec.Label})
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = n.sh.cfg.TxnTimeout
	}
	t.timeoutEv = n.sched.After(timeout, func() { n.timeoutTxn(t) })
	n.run(t)
}

// run executes the program from the start against the transaction's
// log. A run that ends waiting is discarded: the answer it waits for
// runs the program again.
func (n *Node) run(t *activeTxn) {
	t.cursor = 0
	t.waiting = false
	clear(t.writeVals)
	t.writeOrder = t.writeOrder[:0]
	err := t.spec.Program(&t.tx)
	if !t.waiting {
		n.finishTxn(t, err)
	}
}

// resume logs an answer that arrived while the program waited and runs
// the program again.
func (n *Node) resume(t *activeTxn, e request) {
	t.log = append(t.log, e)
	n.run(t)
}

// exec hands an operation past the end of the log to the engine.
func (n *Node) exec(t *activeTxn, req request) request {
	switch req.kind {
	case reqRead:
		return n.handleRead(t, req)
	case reqWrite:
		return n.handleWrite(t, req)
	}
	// A Think: the run waits out its duration.
	n.sched.After(req.think, func() {
		if !t.finished {
			n.resume(t, request{kind: reqThink})
		}
	})
	return t.wait()
}

// poison marks the transaction as doomed and answers the current
// operation with the cause. The program is expected to return the error.
func (n *Node) poison(t *activeTxn, req request, err error) request {
	t.poisoned = err
	req.err = err
	return t.answer(req)
}

// remoteRead sends a Section 4.1 lock request for o to home; the run
// waits for the grant or deny.
func (n *Node) remoteRead(t *activeTxn, req request, frag fragments.FragmentID, home netsim.NodeID) request {
	n.sh.reg.IncRead(frag, n.origin(t.spec))
	t.pendingRemote = &req
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KRemoteLockWait, Txn: t.id,
			Obj: req.obj, Peer: home, HasPeer: true})
	}
	n.net.Send(n.id, home, lockReqMsg{Txn: t.id, Object: req.obj, From: n.id})
	return t.wait()
}

// handleRead processes a read past the log.
func (n *Node) handleRead(t *activeTxn, req request) request {
	o := req.obj
	frag, ok := n.store.FragmentOf(o)
	if !ok {
		return n.poison(t, req, fmt.Errorf("%w: %q", ErrUnknownObject, o))
	}
	req.frag = frag
	foreign := t.spec.Fragment == "" || frag != t.spec.Fragment
	opt := n.sh.optionFor(t.spec.Fragment)
	// Partial replication: a node that does not hold the fragment must
	// read it remotely at the agent's home node, whatever the option.
	if !n.sh.IsReplica(frag, n.id) {
		if home, ok := n.sh.tokens.HomeOfFragment(frag); ok && home != n.id {
			return n.remoteRead(t, req, frag, home)
		}
	}
	// Section 4.2: update transactions must stay within the declared
	// read-access graph. Read-only transactions are exempt (the paper
	// allows them to violate the restrictions).
	if opt == AcyclicReads && t.spec.Fragment != "" && foreign {
		if !n.sh.rag.HasEdge(t.spec.Fragment, frag) {
			return n.poison(t, req, fmt.Errorf("%w: %s reading %s", ErrUndeclaredRead, t.spec.Fragment, frag))
		}
	}
	// Section 4.1: reads outside the updated fragment acquire a lock at
	// the owning agent's home node and read the authoritative copy.
	if opt == ReadLocks && foreign {
		if home, ok := n.sh.tokens.HomeOfFragment(frag); ok && home != n.id {
			return n.remoteRead(t, req, frag, home)
		}
	}
	return n.acquire(t, req, lock.Shared)
}

// handleWrite processes a write past the log.
func (n *Node) handleWrite(t *activeTxn, req request) request {
	if t.multi {
		// Multi-fragment transactions may write any EXISTING object;
		// the 2PC participants (the fragments' agents) authorize the
		// writes at prepare time.
		f, ok := n.store.FragmentOf(req.obj)
		if !ok {
			return n.poison(t, req, fmt.Errorf("%w: %q (multi-fragment writes need existing objects)", ErrUnknownObject, req.obj))
		}
		req.frag = f
	} else {
		if t.spec.Fragment == "" {
			return n.poison(t, req, ErrReadOnlyTxn)
		}
		// Initiation requirement: the written object must lie in the
		// transaction's fragment; new objects are created in it.
		if err := n.store.CheckInitiation(t.spec.Fragment, req.obj); err != nil {
			return n.poison(t, req, err)
		}
		req.frag = t.spec.Fragment
	}
	return n.acquire(t, req, lock.Exclusive)
}

// acquire takes the operation's local lock: granted, it completes;
// queued, the run waits on the grant.
func (n *Node) acquire(t *activeTxn, req request, mode lock.Mode) request {
	granted, err := n.locks.Acquire(t.id, req.obj, mode)
	if err != nil {
		n.sh.stats.Deadlocks.Add(1)
		return n.poison(t, req, ErrDeadlock)
	}
	if !granted {
		r := req
		t.parked = &r
		return t.wait()
	}
	return n.granted(t, req)
}

// granted completes an operation that holds its lock. A running
// program on a zero-latency node gets the answer inline; otherwise it
// arrives after the per-operation latency and the program runs again.
func (n *Node) granted(t *activeTxn, req request) request {
	if req.kind == reqRead {
		n.sh.reg.IncRead(req.frag, n.origin(t.spec))
	} else {
		n.sh.reg.IncWrite(req.frag, n.origin(t.spec))
	}
	if n.opCost == 0 && !t.waiting {
		return t.answer(n.complete(t, req))
	}
	n.sched.After(n.opCost, func() {
		if !t.finished {
			n.resume(t, n.complete(t, req))
		}
	})
	return t.wait()
}

// complete answers a granted operation: a read takes the stored value
// and records what it observed; a write is buffered by whoever logs it.
func (n *Node) complete(t *activeTxn, req request) request {
	if req.kind == reqWrite {
		return req
	}
	ver, known := n.store.GetVersion(req.obj)
	obs := history.ReadObs{Object: req.obj, Frag: req.frag}
	if known {
		obs.FromTxn = ver.Txn
		obs.Pos = ver.Pos
		req.val = ver.Value
	}
	t.reads = append(t.reads, obs)
	return req
}

// finishTxn handles the program's completion: commit or abort.
func (n *Node) finishTxn(t *activeTxn, progErr error) {
	if progErr == nil {
		progErr = t.poisoned
	}
	if progErr != nil {
		n.finalize(t, progErr, false)
		return
	}
	if t.multi && len(t.writeOrder) > 0 {
		n.startMulti(t)
		return
	}
	if t.spec.Fragment == "" || len(t.writeOrder) == 0 {
		// Read-only commit: record for auditing, release, done.
		if n.rec != nil {
			n.rec.Record(history.TxnRecord{
				ID: t.id, Type: n.agentType(t.spec.Agent), ReadOnly: true,
				Reads: t.reads, Node: n.id, Commit: n.sched.Now(),
			})
		}
		n.finalize(t, nil, true)
		return
	}
	writes := t.finalWrites()
	for _, w := range writes {
		if err := n.store.CheckInitiation(t.spec.Fragment, w.Object); err != nil {
			n.finalize(t, err, false)
			return
		}
	}
	st := n.stream(t.spec.Fragment)
	pos := st.last.Next()
	if n.sh.IsCommutative(t.spec.Fragment) {
		// Commutative fragments need only uniqueness, not contiguity:
		// compose the position from the node id and local sequence so
		// agents at different homes never collide.
		pos = txn.FragPos{Seq: (uint64(n.id)+1)<<40 | t.id.Seq}
	}
	q := txn.Quasi{
		Txn: t.id, Fragment: t.spec.Fragment, Pos: pos,
		Home: n.id, Writes: writes, Stamp: n.sched.Now(),
	}
	if n.sh.cfg.MajorityCommit {
		n.startMajority(t, q)
		return
	}
	n.commitLocal(t, q, true)
}

// finalWrites collapses the workspace to one write per object, in
// sorted object order.
func (t *activeTxn) finalWrites() []txn.WriteOp {
	objs := make([]fragments.ObjectID, len(t.writeOrder))
	copy(objs, t.writeOrder)
	slices.Sort(objs)
	out := make([]txn.WriteOp, len(objs))
	for i, o := range objs {
		out[i] = txn.WriteOp{Object: o, Value: t.writeVals[o]}
	}
	return out
}

// commitLocal installs the update at the home node, records history,
// finalizes the transaction, and propagates. When viaQuasi is true the
// quasi-transaction itself is broadcast (normal mode); in majority mode
// the commit command is broadcast instead, remotes having buffered the
// quasi during the prepare phase.
func (n *Node) commitLocal(t *activeTxn, q txn.Quasi, viaQuasi bool) {
	st := n.stream(q.Fragment)
	if n.sh.IsCommutative(q.Fragment) {
		st.seen[t.id] = true
		if st.last.Less(q.Pos) {
			st.last = q.Pos
		}
	} else {
		st.last = q.Pos
	}
	n.store.Apply(t.id, q.Fragment, q.Pos, q.Writes, q.Stamp)
	if n.rec != nil {
		n.rec.Record(history.TxnRecord{
			ID: t.id, Type: q.Fragment, UpdateFragment: q.Fragment, Pos: q.Pos,
			Writes: sortedWriteObjects(q.Writes), Reads: t.reads,
			Node: n.id, Commit: n.sched.Now(),
		})
	}
	n.finalize(t, nil, true)
	if viaQuasi {
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KQuasiSend, Txn: t.id,
				Frag: q.Fragment, Pos: q.Pos})
		}
		n.bcast.Send(q)
	} else {
		n.bcast.Send(commitCmdMsg{Txn: t.id, Fragment: q.Fragment})
	}
	if n.sh.onQuasiApplied != nil {
		n.sh.onQuasiApplied(n.id, q)
	}
	n.notifyStreamWaiters(st)
	n.drainStream(q.Fragment, st)
}

// agentType maps an agent to the fragment it controls, for history
// typing of read-only transactions (best effort: the first fragment).
func (n *Node) agentType(a fragments.AgentID) fragments.FragmentID {
	fs := n.sh.tokens.FragmentsOf(a)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// finalize completes a transaction exactly once: cancels its timeout,
// releases its locks everywhere, updates counters, and invokes the
// completion callback.
func (n *Node) finalize(t *activeTxn, err error, committed bool) {
	if t.finished {
		return
	}
	t.finished = true
	n.sched.Cancel(t.timeoutEv)
	if t.majorityEv != nil {
		n.sched.Cancel(t.majorityEv)
	}
	delete(n.active, t.id)
	grants := n.locks.Release(t.id)
	// Release messages go out in node order: map order would let the
	// release race unfold differently run to run under the same seed.
	peers := make([]netsim.NodeID, 0, len(t.remoteLocked))
	for peer := range t.remoteLocked {
		peers = append(peers, peer)
	}
	slices.Sort(peers)
	for _, peer := range peers {
		n.net.Send(n.id, peer, lockReleaseMsg{Txn: t.id})
	}
	now := n.sched.Now()
	if committed {
		n.sh.stats.Committed.Add(1)
		n.sh.stats.CommitLatency.Observe(now.Sub(t.start))
		n.sh.reg.IncCommit(t.spec.Fragment, n.origin(t.spec))
		n.sh.reg.ObserveCommitLatency(t.spec.Fragment, n.origin(t.spec), now.Sub(t.start))
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KCommit, Txn: t.id,
				Frag: t.spec.Fragment, Dur: now.Sub(t.start), Note: t.spec.Label})
		}
	} else {
		n.sh.stats.Aborted.Add(1)
		n.sh.reg.IncAbort(t.spec.Fragment, n.origin(t.spec), abortCause(err))
		if n.tr.Enabled() {
			cause := ""
			if err != nil {
				cause = err.Error()
			}
			n.tr.Emit(trace.Event{Kind: trace.KAbort, Txn: t.id,
				Frag: t.spec.Fragment, Dur: now.Sub(t.start), Err: cause, Note: t.spec.Label})
		}
	}
	n.onGrants(grants)
	if t.done != nil {
		t.done(TxnResult{
			ID: t.id, Label: t.spec.Label, Committed: committed,
			Err: err, Start: t.start, End: now,
		})
	}
}

// abortCause classifies an abort error into the fixed label set of the
// frag_aborts_total metric family. The set is closed (every branch maps
// to one of these strings) so the registry's cause cardinality stays
// bounded no matter what error text the engine produces.
func abortCause(err error) string {
	switch {
	case err == nil:
		return "other"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	case errors.Is(err, ErrWounded):
		return "wounded"
	case errors.Is(err, ErrNoMajority):
		return "no-majority"
	case errors.Is(err, ErrRemoteDenied):
		return "remote-deny"
	case errors.Is(err, ErrAgentMoving):
		return "agent-moving"
	case errors.Is(err, ErrUndeclaredRead):
		return "undeclared-read"
	case errors.Is(err, ErrNotAgent), errors.Is(err, ErrNotHome):
		return "rejected"
	default:
		return "other"
	}
}

// timeoutTxn aborts a transaction that has been blocked too long.
func (n *Node) timeoutTxn(t *activeTxn) {
	if t.finished {
		return
	}
	n.sh.stats.TimedOut.Add(1)
	n.abortBlocked(t, ErrTimeout)
}

// abortBlocked aborts a transaction from outside its program: a
// timeout, a wound by a quasi-transaction, a crash, or a failed
// majority. The program is not running (the engine is between events):
// its run waits on a lock, a remote grant or a scheduled answer, or
// the program completed and the transaction awaits a majority or a
// two-phase commit. The program never runs again.
func (n *Node) abortBlocked(t *activeTxn, cause error) {
	if t.finished {
		return
	}
	waitingMaj := t.waitingMajority
	t.waitingMajority = false
	if t.waitingMulti {
		// The program already completed; tell participants to abort.
		t.waitingMulti = false
		n.abortMulti(t)
	}
	n.finalize(t, cause, false)
	if waitingMaj {
		// The program already completed; cancel the prepared quasi.
		n.bcast.Send(abortCmdMsg{Txn: t.id, Fragment: t.spec.Fragment})
	}
}

// --- quasi-transaction application -----------------------------------

// quasiWaiter tracks a quasi-transaction acquiring its write locks.
type quasiWaiter struct {
	q  txn.Quasi
	f  fragments.FragmentID
	st *streamState
	// remaining holds the write locks still queued; made only when one
	// queues.
	remaining map[fragments.ObjectID]bool
	// ordered is false for commutative fragments, whose installation
	// neither blocks nor advances the strict stream sequence.
	ordered bool
}

// applyQuasi installs a quasi-transaction under exclusive locks,
// wounding local transactions if a deadlock would otherwise arise
// (remote updates have priority: they are already committed at the home
// node and cannot be aborted).
func (n *Node) applyQuasi(f fragments.FragmentID, st *streamState, q txn.Quasi) {
	st.applying = true
	n.acquireAndInstall(&quasiWaiter{q: q, f: f, st: st, ordered: true})
}

// applyQuasiUnordered installs a commutative fragment's
// quasi-transaction without stream sequencing.
func (n *Node) applyQuasiUnordered(f fragments.FragmentID, st *streamState, q txn.Quasi) {
	n.acquireAndInstall(&quasiWaiter{q: q, f: f, st: st, ordered: false})
}

// acquireAndInstall takes the quasi-transaction's write locks (wounding
// local holders on deadlock) and installs once all are held.
func (n *Node) acquireAndInstall(w *quasiWaiter) {
	q := w.q
	if n.quasiWaiters == nil {
		n.quasiWaiters = make(map[txn.ID]*quasiWaiter)
	}
	n.quasiWaiters[q.Txn] = w
	for _, wo := range writesInObjectOrder(q.Writes) {
		o := wo.Object
		granted, err := n.locks.Acquire(q.Txn, o, lock.Exclusive)
		if err != nil {
			// Deadlock: wound the local holders and retry.
			n.woundHolders(o, q.Txn)
			granted, err = n.locks.Acquire(q.Txn, o, lock.Exclusive)
			if err != nil {
				// Still cyclic through other objects; wound again is not
				// possible here — treat as queued; the cycle was broken
				// by the wounds above in all realizable schedules.
				granted = false
			}
		}
		if !granted {
			if w.remaining == nil {
				w.remaining = make(map[fragments.ObjectID]bool)
			}
			w.remaining[o] = true
		}
	}
	if len(w.remaining) == 0 {
		n.installQuasi(w)
	}
}

// woundHolders aborts every local transaction holding a lock on o (and
// force-releases remote readers), so a committed remote update can
// proceed. It reports whether it released any holder.
func (n *Node) woundHolders(o fragments.ObjectID, requester txn.ID) (wounded bool) {
	for _, h := range n.locks.Holders(o) {
		if h == requester {
			continue
		}
		if t, ok := n.active[h]; ok {
			n.sh.stats.Wounds.Add(1)
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KWound, Txn: h,
					Other: requester, Obj: o})
			}
			n.abortBlocked(t, ErrWounded)
			wounded = true
			continue
		}
		if rh, ok := n.remoteHeld[h]; ok {
			n.sched.Cancel(rh.leaseEv)
			delete(n.remoteHeld, h)
			n.onGrants(n.locks.Release(h))
			wounded = true
		}
	}
	return wounded
}

// installQuasi applies the quasi-transaction's writes atomically and,
// for ordered fragments, advances the stream.
func (n *Node) installQuasi(w *quasiWaiter) {
	n.store.ApplyQuasi(w.q)
	if w.ordered {
		w.st.last = w.q.Pos
	} else if w.st.last.Less(w.q.Pos) {
		w.st.last = w.q.Pos
	}
	n.sh.stats.QuasiApplied.Add(1)
	lag := n.sched.Now().Sub(w.q.Stamp)
	n.sh.stats.QuasiLag.Observe(lag)
	w.st.appliesAt(n.sh.reg, w.f, w.q.Home).Inc()
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KQuasiApply, Txn: w.q.Txn,
			Frag: w.f, Pos: w.q.Pos, Peer: w.q.Home, HasPeer: true, Dur: lag})
	}
	delete(n.quasiWaiters, w.q.Txn)
	grants := n.locks.Release(w.q.Txn)
	if w.ordered {
		w.st.applying = false
	}
	n.onGrants(grants)
	if n.sh.onQuasiApplied != nil {
		n.sh.onQuasiApplied(n.id, w.q)
	}
	n.notifyStreamWaiters(w.st)
	if w.ordered {
		n.drainStream(w.f, w.st)
	}
}

// onGrants dispatches lock grants produced by a Release call to their
// waiting owners: parked local transactions, waiting quasi-transactions,
// or queued remote lock requests.
func (n *Node) onGrants(grants []lock.Grant) {
	for _, g := range grants {
		if w, ok := n.quasiWaiters[g.Txn]; ok {
			delete(w.remaining, g.Object)
			if len(w.remaining) == 0 {
				n.installQuasi(w)
			}
			continue
		}
		if p, ok := n.multiByPid[g.Txn]; ok {
			delete(p.remaining, g.Object)
			if len(p.remaining) == 0 {
				n.votePart(p)
			}
			continue
		}
		if t, ok := n.active[g.Txn]; ok && t.parked != nil && t.parked.obj == g.Object {
			req := *t.parked
			t.parked = nil
			n.granted(t, req)
			continue
		}
		if rq, ok := n.remoteQueued[g.Txn]; ok && rq.obj == g.Object {
			delete(n.remoteQueued, g.Txn)
			n.grantRemote(g.Txn, rq.from, g.Object)
		}
	}
}
