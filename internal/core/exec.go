package core

import (
	"errors"
	"fmt"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
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
	n.cl.stats.Offered.Add(1)
	n.cl.sched.After(0, func() { n.startTxn(spec, done) })
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
	n.cl.stats.Rejected.Add(1)
	n.cl.stats.Aborted.Add(1)
	n.cl.reg.IncAbort(spec.Fragment, n.origin(spec), "rejected")
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KReject, Frag: spec.Fragment,
			Err: err.Error(), Note: spec.Label})
	}
	if done != nil {
		done(TxnResult{
			Label: spec.Label, Err: err,
			Start: n.cl.sched.Now(), End: n.cl.sched.Now(),
		})
	}
}

func (n *Node) startTxn(spec TxnSpec, done func(TxnResult)) {
	if spec.Fragment != "" {
		if _, ok := n.cl.cat.Fragment(spec.Fragment); !ok {
			n.reject(spec, done, fmt.Errorf("core: unknown fragment %q", spec.Fragment))
			return
		}
		agent, ok := n.cl.tokens.Agent(spec.Fragment)
		if !ok || agent != spec.Agent {
			n.reject(spec, done, ErrNotAgent)
			return
		}
		home, ok := n.cl.tokens.Home(agent)
		if !ok || home != n.id {
			n.reject(spec, done, ErrNotHome)
			return
		}
		if n.stream(spec.Fragment).moveBlocked {
			n.reject(spec, done, ErrAgentMoving)
			return
		}
	}
	n.nextTxnSeq++
	t := &activeTxn{
		id:           txn.ID{Origin: n.id, Seq: n.nextTxnSeq},
		spec:         spec,
		node:         n,
		reqCh:        make(chan request),
		respCh:       make(chan response),
		writeVals:    make(map[fragments.ObjectID]any),
		remoteLocked: make(map[netsim.NodeID]bool),
		start:        n.cl.sched.Now(),
		done:         done,
	}
	n.active[t.id] = t
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KSubmit, Txn: t.id,
			Frag: spec.Fragment, Note: spec.Label})
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = n.cl.cfg.TxnTimeout
	}
	t.timeoutEv = n.cl.sched.After(timeout, func() { n.timeoutTxn(t) })
	go func() {
		err := spec.Program(&Tx{t: t})
		t.reqCh <- request{kind: reqDone, err: err}
	}()
	n.serve(t)
}

// serve consumes the transaction program's requests until one of them
// requires waiting (a lock queue, a remote lock, a scheduled response),
// at which point it returns; the continuation re-enters serve.
func (n *Node) serve(t *activeTxn) {
	for {
		req := <-t.reqCh
		if req.kind == reqDone {
			n.finishTxn(t, req.err)
			return
		}
		if t.finished {
			t.respCh <- response{err: causeOf(t)}
			continue
		}
		if t.poisoned != nil {
			t.respCh <- response{err: t.poisoned}
			continue
		}
		var cont bool
		switch req.kind {
		case reqThink:
			d := req.think
			n.cl.sched.After(d, func() {
				t.respCh <- response{}
				n.serve(t)
			})
			cont = false
		case reqRead:
			cont = n.handleRead(t, req)
		case reqWrite:
			cont = n.handleWrite(t, req)
		}
		if !cont {
			return
		}
	}
}

func causeOf(t *activeTxn) error {
	if t.poisoned != nil {
		return t.poisoned
	}
	return ErrAborted
}

// poison marks the transaction as doomed and responds to the current
// request with the cause. The program is expected to return the error.
func (n *Node) poison(t *activeTxn, err error) {
	t.poisoned = err
	t.respCh <- response{err: err}
}

// handleRead processes a read request. It returns true when serve
// should keep consuming requests, false when the response was deferred.
func (n *Node) handleRead(t *activeTxn, req request) bool {
	o := req.obj
	if v, ok := t.writeVals[o]; ok {
		// Read-your-own-writes from the transaction workspace.
		t.respCh <- response{val: v, known: true}
		return true
	}
	frag, ok := n.cl.cat.FragmentOf(o)
	if !ok {
		n.poison(t, fmt.Errorf("%w: %q", ErrUnknownObject, o))
		return true
	}
	foreign := t.spec.Fragment == "" || frag != t.spec.Fragment
	opt := n.cl.optionFor(t.spec.Fragment)
	// Partial replication: a node that does not hold the fragment must
	// read it remotely at the agent's home node, whatever the option.
	if !n.cl.IsReplica(frag, n.id) {
		if home, ok := n.cl.tokens.HomeOfFragment(frag); ok && home != n.id {
			n.cl.reg.IncRead(frag, n.origin(t.spec))
			t.pendingRemote = &req
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KRemoteLockWait, Txn: t.id,
					Obj: o, Peer: home, HasPeer: true})
			}
			n.cl.tr.Send(n.id, home, lockReqMsg{Txn: t.id, Object: o, From: n.id})
			return false
		}
	}
	// Section 4.2: update transactions must stay within the declared
	// read-access graph. Read-only transactions are exempt (the paper
	// allows them to violate the restrictions).
	if opt == AcyclicReads && t.spec.Fragment != "" && foreign {
		if !n.cl.rag.HasEdge(t.spec.Fragment, frag) {
			n.poison(t, fmt.Errorf("%w: %s reading %s", ErrUndeclaredRead, t.spec.Fragment, frag))
			return true
		}
	}
	// Section 4.1: reads outside the updated fragment acquire a lock at
	// the owning agent's home node and read the authoritative copy.
	if opt == ReadLocks && foreign {
		if home, ok := n.cl.tokens.HomeOfFragment(frag); ok && home != n.id {
			n.cl.reg.IncRead(frag, n.origin(t.spec))
			t.pendingRemote = &req
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KRemoteLockWait, Txn: t.id,
					Obj: o, Peer: home, HasPeer: true})
			}
			n.cl.tr.Send(n.id, home, lockReqMsg{Txn: t.id, Object: o, From: n.id})
			return false
		}
	}
	granted, err := n.locks.Acquire(t.id, o, lock.Shared)
	if err != nil {
		n.cl.stats.Deadlocks.Add(1)
		n.poison(t, ErrDeadlock)
		return true
	}
	if !granted {
		r := req
		t.parked = &r
		return false
	}
	n.finishRead(t, req)
	return false
}

// finishRead delivers the read value after the per-operation latency.
func (n *Node) finishRead(t *activeTxn, req request) {
	if f, ok := n.cl.cat.FragmentOf(req.obj); ok {
		n.cl.reg.IncRead(f, n.origin(t.spec))
	}
	n.cl.sched.After(n.cl.cfg.OpLatency, func() {
		if t.finished {
			t.respCh <- response{err: causeOf(t)}
			n.serve(t)
			return
		}
		ver, known := n.store.GetVersion(req.obj)
		obs := history.ReadObs{Object: req.obj}
		var val any
		if known {
			obs.FromTxn = ver.Txn
			obs.Pos = ver.Pos
			val = ver.Value
		}
		t.reads = append(t.reads, obs)
		t.respCh <- response{val: val, known: known}
		n.serve(t)
	})
}

// handleWrite processes a write request.
func (n *Node) handleWrite(t *activeTxn, req request) bool {
	if t.multi {
		// Multi-fragment transactions may write any EXISTING object;
		// the 2PC participants (the fragments' agents) authorize the
		// writes at prepare time.
		if _, ok := n.cl.cat.FragmentOf(req.obj); !ok {
			n.poison(t, fmt.Errorf("%w: %q (multi-fragment writes need existing objects)", ErrUnknownObject, req.obj))
			return true
		}
	} else {
		if t.spec.Fragment == "" {
			n.poison(t, ErrReadOnlyTxn)
			return true
		}
		// Initiation requirement: the written object must lie in the
		// transaction's fragment; new objects are created in it.
		if err := n.cl.cat.EnsureObject(t.spec.Fragment, req.obj); err != nil {
			n.poison(t, err)
			return true
		}
	}
	granted, err := n.locks.Acquire(t.id, req.obj, lock.Exclusive)
	if err != nil {
		n.cl.stats.Deadlocks.Add(1)
		n.poison(t, ErrDeadlock)
		return true
	}
	if !granted {
		r := req
		t.parked = &r
		return false
	}
	n.finishWrite(t, req)
	return false
}

// finishWrite buffers the write in the transaction workspace after the
// per-operation latency.
func (n *Node) finishWrite(t *activeTxn, req request) {
	f := t.spec.Fragment
	if ff, ok := n.cl.cat.FragmentOf(req.obj); ok {
		f = ff
	}
	n.cl.reg.IncWrite(f, n.origin(t.spec))
	n.cl.sched.After(n.cl.cfg.OpLatency, func() {
		if t.finished {
			t.respCh <- response{err: causeOf(t)}
			n.serve(t)
			return
		}
		if _, seen := t.writeVals[req.obj]; !seen {
			t.writeOrder = append(t.writeOrder, req.obj)
		}
		t.writeVals[req.obj] = req.val
		t.respCh <- response{}
		n.serve(t)
	})
}

// finishTxn handles the program's completion: commit or abort.
func (n *Node) finishTxn(t *activeTxn, progErr error) {
	if t.finalizedFlag {
		return // engine aborted it earlier; nothing more to do
	}
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
		n.cl.rec.Record(history.TxnRecord{
			ID: t.id, Type: n.agentType(t.spec.Agent), ReadOnly: true,
			Reads: t.reads, Node: n.id, Commit: n.cl.sched.Now(),
		})
		n.finalize(t, nil, true)
		return
	}
	writes := t.finalWrites()
	objs := make([]fragments.ObjectID, len(writes))
	for i, w := range writes {
		objs[i] = w.Object
	}
	if err := n.cl.cat.CheckInitiation(t.spec.Fragment, objs); err != nil {
		n.finalize(t, err, false)
		return
	}
	st := n.stream(t.spec.Fragment)
	pos := st.last.Next()
	if n.cl.IsCommutative(t.spec.Fragment) {
		// Commutative fragments need only uniqueness, not contiguity:
		// compose the position from the node id and local sequence so
		// agents at different homes never collide.
		pos = txn.FragPos{Seq: (uint64(n.id)+1)<<40 | t.id.Seq}
	}
	q := txn.Quasi{
		Txn: t.id, Fragment: t.spec.Fragment, Pos: pos,
		Home: n.id, Writes: writes, Stamp: n.cl.sched.Now(),
	}
	if n.cl.cfg.MajorityCommit {
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
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
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
	if n.cl.IsCommutative(q.Fragment) {
		st.seen[t.id] = true
		if st.last.Less(q.Pos) {
			st.last = q.Pos
		}
	} else {
		st.last = q.Pos
	}
	n.store.Apply(t.id, q.Fragment, q.Pos, q.Writes, q.Stamp)
	n.cl.rec.Record(history.TxnRecord{
		ID: t.id, Type: q.Fragment, UpdateFragment: q.Fragment, Pos: q.Pos,
		Writes: sortedWriteObjects(q.Writes), Reads: t.reads,
		Node: n.id, Commit: n.cl.sched.Now(),
	})
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
	if n.cl.onQuasiApplied != nil {
		n.cl.onQuasiApplied(n.id, q)
	}
	n.notifyStreamWaiters(st)
	n.drainStream(q.Fragment, st)
}

// agentType maps an agent to the fragment it controls, for history
// typing of read-only transactions (best effort: the first fragment).
func (n *Node) agentType(a fragments.AgentID) fragments.FragmentID {
	fs := n.cl.tokens.FragmentsOf(a)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// finalize completes a transaction exactly once: cancels its timeout,
// releases its locks everywhere, updates counters, and invokes the
// completion callback.
func (n *Node) finalize(t *activeTxn, err error, committed bool) {
	if t.finalizedFlag {
		return
	}
	t.finalizedFlag = true
	t.finished = true
	if t.poisoned == nil && err != nil {
		t.poisoned = err
	}
	n.cl.sched.Cancel(t.timeoutEv)
	if t.majorityEv != nil {
		n.cl.sched.Cancel(t.majorityEv)
	}
	delete(n.active, t.id)
	grants := n.locks.Release(t.id)
	// Release messages go out in node order: map order would let the
	// release race unfold differently run to run under the same seed.
	peers := make([]netsim.NodeID, 0, len(t.remoteLocked))
	for peer := range t.remoteLocked {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, peer := range peers {
		n.cl.tr.Send(n.id, peer, lockReleaseMsg{Txn: t.id})
	}
	now := n.cl.sched.Now()
	if committed {
		n.cl.stats.Committed.Add(1)
		n.cl.stats.CommitLatency.Observe(now.Sub(t.start))
		n.cl.reg.IncCommit(t.spec.Fragment, n.origin(t.spec))
		n.cl.reg.ObserveCommitLatency(t.spec.Fragment, n.origin(t.spec), now.Sub(t.start))
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KCommit, Txn: t.id,
				Frag: t.spec.Fragment, Dur: now.Sub(t.start), Note: t.spec.Label})
		}
	} else {
		n.cl.stats.Aborted.Add(1)
		n.cl.reg.IncAbort(t.spec.Fragment, n.origin(t.spec), abortCause(err))
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
	if t.finalizedFlag {
		return
	}
	n.cl.stats.TimedOut.Add(1)
	n.abortBlocked(t, ErrTimeout)
}

// abortBlocked aborts a transaction from outside its own request flow:
// a timeout, a wound by a quasi-transaction, or a failed majority. The
// transaction is necessarily not mid-request (the engine is between
// events), so it is parked on a lock, awaiting a remote grant, awaiting
// a majority, awaiting a scheduled response, or thinking.
func (n *Node) abortBlocked(t *activeTxn, cause error) {
	if t.finalizedFlag {
		return
	}
	t.finished = true
	t.poisoned = cause
	waitingMaj := t.waitingMajority
	waitingMulti := t.waitingMulti
	t.waitingMajority = false
	t.waitingMulti = false
	if waitingMulti {
		n.abortMulti(t)
	}
	n.finalize(t, cause, false)
	switch {
	case waitingMulti:
		// The program already completed; participants were told to abort.
	case waitingMaj:
		// The program already completed; cancel the prepared quasi.
		n.bcast.Send(abortCmdMsg{Txn: t.id, Fragment: t.spec.Fragment})
	case t.parked != nil:
		t.parked = nil
		t.respCh <- response{err: cause}
		n.serve(t)
	case t.pendingRemote != nil:
		t.pendingRemote = nil
		t.respCh <- response{err: cause}
		n.serve(t)
	default:
		// A response event is scheduled (finishRead/finishWrite/Think);
		// its closure observes t.finished and responds with the cause.
	}
}

// --- quasi-transaction application -----------------------------------

// quasiWaiter tracks a quasi-transaction acquiring its write locks.
type quasiWaiter struct {
	q         txn.Quasi
	f         fragments.FragmentID
	st        *streamState
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
	n.acquireAndInstall(&quasiWaiter{q: q, f: f, st: st, ordered: true,
		remaining: make(map[fragments.ObjectID]bool)})
}

// applyQuasiUnordered installs a commutative fragment's
// quasi-transaction without stream sequencing.
func (n *Node) applyQuasiUnordered(f fragments.FragmentID, st *streamState, q txn.Quasi) {
	n.acquireAndInstall(&quasiWaiter{q: q, f: f, st: st, ordered: false,
		remaining: make(map[fragments.ObjectID]bool)})
}

// acquireAndInstall takes the quasi-transaction's write locks (wounding
// local holders on deadlock) and installs once all are held.
func (n *Node) acquireAndInstall(w *quasiWaiter) {
	q := w.q
	if n.quasiWaiters == nil {
		n.quasiWaiters = make(map[txn.ID]*quasiWaiter)
	}
	n.quasiWaiters[q.Txn] = w
	for _, o := range sortedWriteObjects(q.Writes) {
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
			w.remaining[o] = true
		}
	}
	if len(w.remaining) == 0 {
		n.installQuasi(w)
	}
}

// woundHolders aborts every local transaction holding a lock on o (and
// force-releases remote readers), so a committed remote update can
// proceed.
func (n *Node) woundHolders(o fragments.ObjectID, requester txn.ID) {
	for _, h := range n.locks.Holders(o) {
		if h == requester {
			continue
		}
		if t, ok := n.active[h]; ok {
			n.cl.stats.Wounds.Add(1)
			if n.tr.Enabled() {
				n.tr.Emit(trace.Event{Kind: trace.KWound, Txn: h,
					Other: requester, Obj: o})
			}
			n.abortBlocked(t, ErrWounded)
			continue
		}
		if rh, ok := n.remoteHeld[h]; ok {
			n.cl.sched.Cancel(rh.leaseEv)
			delete(n.remoteHeld, h)
			n.onGrants(n.locks.Release(h))
		}
	}
}

// ensureCataloged registers a quasi-transaction's write objects in this
// process's catalog. In the simulator the shared catalog already knows
// them (the home node's write path registered each object before the
// quasi-transaction was broadcast, so this is a no-op); in a SingleNode
// multi-process deployment each process has its own catalog, which
// first learns of a remote agent's dynamically created objects here —
// before the install and any application trigger that reads them.
func (n *Node) ensureCataloged(f fragments.FragmentID, writes []txn.WriteOp) {
	for _, wo := range writes {
		// The only possible error is a cross-fragment conflict, which
		// would require two agents writing the same object — excluded by
		// the fragments-and-agents ownership model.
		_ = n.cl.cat.EnsureObject(f, wo.Object)
	}
}

// installQuasi applies the quasi-transaction's writes atomically and,
// for ordered fragments, advances the stream.
func (n *Node) installQuasi(w *quasiWaiter) {
	n.ensureCataloged(w.f, w.q.Writes)
	n.store.ApplyQuasi(w.q)
	if w.ordered {
		w.st.last = w.q.Pos
	} else if w.st.last.Less(w.q.Pos) {
		w.st.last = w.q.Pos
	}
	n.cl.stats.QuasiApplied.Add(1)
	lag := n.cl.sched.Now().Sub(w.q.Stamp)
	n.cl.stats.QuasiLag.Observe(lag)
	w.st.appliesAt(n.cl.reg, w.f, w.q.Home).Inc()
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
	if n.cl.onQuasiApplied != nil {
		n.cl.onQuasiApplied(n.id, w.q)
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
			if req.kind == reqRead {
				n.finishRead(t, req)
			} else {
				n.finishWrite(t, req)
			}
			continue
		}
		if rq, ok := n.remoteQueued[g.Txn]; ok && rq.obj == g.Object {
			delete(n.remoteQueued, g.Txn)
			n.grantRemote(g.Txn, rq.from, g.Object)
		}
	}
}
