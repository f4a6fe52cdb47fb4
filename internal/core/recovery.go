package core

import (
	"errors"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// ErrCrashed aborts transactions in flight when their node crashes.
var ErrCrashed = errors.New("core: node crashed")

// SimulateCrashRestart models a crash-and-restart of this node: all
// volatile state is lost and rebuilt from the durable state, namely the
// store's write-ahead log and the broadcast journal (a real system
// fsyncs both; the simulation keeps them across the "crash").
//
// Lost and rebuilt:
//
//   - active transactions — aborted with ErrCrashed (their completion
//     callbacks fire, as a client would observe a connection drop);
//   - the lock table, parked quasi-transactions, remote-lock state, and
//     prepared multi-fragment parts (their coordinators time out and
//     presume abort — the classic 2PC window; parts already told to
//     commit before the crash were WAL-durable and survive);
//   - per-fragment stream positions — recomputed from the WAL;
//   - out-of-order buffers — rebuilt by replaying the broadcast journal
//     through the normal delivery path, which is idempotent (positions
//     at or below the WAL's high-water mark deduplicate).
//
// Pair with Net().SetNodeDown(id, true/false) to model the outage
// window itself; messages sent to the node while down are lost and
// recovered by anti-entropy afterwards.
func (n *Node) SimulateCrashRestart() {
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KCrash, Arg: int64(len(n.active))})
	}
	// Abort whatever was running.
	for _, t := range n.activeSnapshot() {
		n.abortBlocked(t, ErrCrashed)
	}
	// Volatile state: gone.
	n.locks = n.newLockManager()
	n.quasiWaiters = make(map[txn.ID]*quasiWaiter)
	n.remoteHeld = make(map[txn.ID]*remoteHolder)
	n.remoteQueued = make(map[txn.ID]remoteQueue)
	n.multiCoords = make(map[txn.ID]*multiCoord)
	n.multiParts = make(map[partKey]*multiPart)
	n.multiByPid = make(map[txn.ID]*multiPart)
	n.posQueries = make(map[uint64]func(netsim.NodeID, txn.FragPos))
	oldStreams := n.streams
	n.streams = make(map[fragments.FragmentID]*streamState)

	// Rebuild stream high-water marks from the WAL.
	for _, rec := range n.store.Log() {
		if rec.Fragment == "" {
			continue
		}
		st := n.stream(rec.Fragment)
		if n.sh.IsCommutative(rec.Fragment) {
			st.seen[rec.Txn] = true
			if st.last.Less(rec.Pos) {
				st.last = rec.Pos
			}
		} else if st.last.Less(rec.Pos) {
			st.last = rec.Pos
		}
	}
	// Epoch-recovery roles survive only as far as the WAL implies; a
	// recovering new-home keeps its repackaging duty (its recovered set
	// is conservative: re-recovering a missing transaction twice is
	// prevented by the seen ids rebuilt above only for commutative
	// fragments, so preserve the old recovery markers where present).
	for f, old := range oldStreams {
		st := n.stream(f)
		st.recovering = old.recovering
		st.recovered = old.recovered
		st.forward = old.forward
		st.forwardTo = old.forwardTo
		st.oldEpoch = old.oldEpoch
		st.oldInstalled = old.oldInstalled
		// An epoch switch is durable — the M0 announcement that caused it
		// sits in the broadcast journal — but the WAL records it only once
		// a new-epoch transaction commits. A node that crashed between the
		// switch and the first new-epoch commit must come back in the new
		// epoch: falling back to the old-epoch high-water mark would make
		// a new home reuse old-epoch sequence numbers that every other
		// node has already moved past (and discards as stale).
		if st.last.Epoch < old.last.Epoch {
			st.last = txn.FragPos{Epoch: old.last.Epoch, Seq: 0}
		}
	}

	// Re-apply durably installed snapshots in their original order: the
	// broadcast messages they stood in for are below the compaction
	// horizon and cannot be replayed, and the stream positions and
	// in-flight buffers they carried are volatile. applySnap is
	// idempotent over the WAL-rebuilt state (dominance merges, seen-id
	// deduplication), so re-applying after the rebuild is safe.
	for _, e := range n.snapJournal {
		n.applySnap(e.snap, e.have, e.prev)
	}

	// Replay the retained broadcast journal through the normal delivery
	// path to rebuild buffers and majority-commit state; deliveries
	// already in the WAL deduplicate on position. Under compaction the
	// journal starts at the stream's horizon, above any installed
	// snapshot, so the sequence numbers resume from Base.
	for origin := 0; origin < n.sh.cfg.N; origin++ {
		o := netsim.NodeID(origin)
		base := n.bcast.Base(o)
		for i, payload := range n.bcast.Log(o) {
			n.handleBroadcast(o, base+uint64(i)+1, payload)
		}
	}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KRestart})
	}
}

// activeSnapshot copies the active set in deterministic order (abort
// mutates the map).
func (n *Node) activeSnapshot() []*activeTxn {
	out := make([]*activeTxn, 0, len(n.active))
	for _, t := range n.active {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Less(out[j].id) })
	return out
}
