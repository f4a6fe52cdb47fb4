package core

import (
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/storage"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// Snapshot catch-up support for broadcast log compaction. When the
// reliable broadcast truncates a stream below a laggard's prefix, the
// laggard can no longer be repaired message by message; instead a
// current replica ships a nodeSnap — its database versions plus the
// per-fragment stream state the compacted messages would have produced
// — and the broadcast layer fast-forwards the laggard's prefixes to the
// snapshot's delivered vector. The retained log tail then replays
// through the normal delivery path, so the net effect is equivalent to
// having delivered the truncated prefix (the Section 2.2 guarantee is
// preserved, just not message by message).

// snapStream is one non-commutative fragment's stream state as carried
// by a snapshot: the installed position plus the in-flight buffers
// whose resolution (commit command, epoch announcement) may only arrive
// in the retained tail above the snapshot horizon.
type snapStream struct {
	Last     txn.FragPos
	Pending  map[txn.FragPos]txn.Quasi
	Prepared map[txn.ID]txn.Quasi
}

// nodeSnap is the application state of broadcast.SnapshotOffer.State.
// Vals holds the database versions by fragment, which the receiver
// resolves in its own catalog. Applied carries the commutative
// fragments' installed quasi-transactions (rebuilt from the WAL): they
// are replayed rather than value-merged so that per-update application
// triggers — the paper's Section 2 "new transaction is triggered here"
// — fire at the catching-up node exactly as if the updates had been
// delivered.
type nodeSnap struct {
	Vals    map[fragments.FragmentID]map[fragments.ObjectID]storage.Version
	Streams map[fragments.FragmentID]snapStream
	Applied map[fragments.FragmentID][]txn.Quasi
}

// numVals counts the objects the snapshot carries versions of.
func (s nodeSnap) numVals() int {
	n := 0
	for _, vals := range s.Vals {
		n += len(vals)
	}
	return n
}

// snapJournalEntry records one installed snapshot durably (see
// Node.snapJournal).
type snapJournalEntry struct {
	snap nodeSnap
	have map[netsim.NodeID]uint64
	prev map[netsim.NodeID]uint64
}

// nodeSnapshotter adapts a Node to broadcast.Snapshotter. (The name
// InstallSnapshot is taken by the move-with-data protocol of Section
// 4.4.2A, hence the unexported captureSnap/installSnap pair.)
type nodeSnapshotter struct{ n *Node }

func (s nodeSnapshotter) CaptureState() (any, bool) { return s.n.captureSnap() }

func (s nodeSnapshotter) InstallState(state any, snapHave, prevHave map[netsim.NodeID]uint64) {
	s.n.installSnap(state, snapHave, prevHave)
}

// captureSnap builds a snapshot of this node's state for a lagging
// peer. It reports ok=false if this node holds only partial replicas:
// such a node cannot vouch for the full database, and some full replica
// will serve the offer instead. Called with the broadcaster's lock
// held; must not call back into the broadcaster.
func (n *Node) captureSnap() (any, bool) {
	for _, f := range n.sh.cat.Fragments() {
		if !n.sh.IsReplica(f, n.id) {
			return nil, false
		}
	}
	snap := nodeSnap{
		Vals:    n.store.VersionSnapshot(),
		Streams: make(map[fragments.FragmentID]snapStream),
		Applied: make(map[fragments.FragmentID][]txn.Quasi),
	}
	for f, st := range n.streams {
		if n.sh.IsCommutative(f) {
			continue
		}
		s := snapStream{
			Last:     st.last,
			Pending:  make(map[txn.FragPos]txn.Quasi, len(st.pending)),
			Prepared: make(map[txn.ID]txn.Quasi, len(st.prepared)),
		}
		for p, q := range st.pending {
			s.Pending[p] = q
		}
		for id, q := range st.prepared {
			s.Prepared[id] = q
		}
		// This node's own in-flight majority-commit transactions: their
		// prepare messages already occupy broadcast sequence numbers
		// below the advertised prefix, but at the home the quasi lives
		// in active-transaction state, not st.prepared (handlePrepare
		// ignores self-deliveries) and not in the store (not yet
		// committed). Without these the receiver would fast-forward
		// past the prepare and drop the commit command that follows in
		// the retained tail, losing the update.
		for _, t := range n.active {
			if !t.waitingMajority || t.pendingQuasi.Fragment != f {
				continue
			}
			s.Prepared[t.pendingQuasi.Txn] = t.pendingQuasi
		}
		// Quasi-transactions parked on write locks: drainStream has
		// already pulled them out of st.pending, but installation waits
		// on locks held by a local transaction, so they are not in the
		// store either. Fold them back into the shipped pending buffer
		// so the receiver, whose prefixes fast-forward past their
		// delivery, still applies them.
		for _, w := range n.quasiWaiters {
			if !w.ordered || w.f != f {
				continue
			}
			s.Pending[w.q.Pos] = w.q
		}
		snap.Streams[f] = s
	}
	// Commutative fragments travel as their installed quasi-transactions,
	// rebuilt from the WAL. Home is approximated by this node's id; the
	// receiver's trigger path keys on fragment and writes, and duplicate
	// suppression keys on Txn, so the approximation is harmless.
	for _, rec := range n.store.Log() {
		if rec.Fragment == "" || !n.sh.IsCommutative(rec.Fragment) {
			continue
		}
		snap.Applied[rec.Fragment] = append(snap.Applied[rec.Fragment], txn.Quasi{
			Txn: rec.Txn, Fragment: rec.Fragment, Pos: rec.Pos,
			Home: n.id, Writes: rec.Writes, Stamp: rec.Stamp,
		})
	}
	// Commutative quasi-transactions parked on write locks have no WAL
	// record yet; ship them alongside the installed ones (the receiver
	// deduplicates on transaction id).
	for _, w := range n.quasiWaiters {
		if w.ordered || !n.sh.IsCommutative(w.f) {
			continue
		}
		snap.Applied[w.f] = append(snap.Applied[w.f], w.q)
	}
	if n.tr.Enabled() {
		// Safe with the broadcaster's lock held: the recorder never calls
		// out of its own mutex.
		n.tr.Emit(trace.Event{Kind: trace.KSnapCapture, Arg: int64(snap.numVals())})
	}
	return snap, true
}

// installSnap merges a peer's snapshot into this node, journals it
// durably, and aborts whatever was running locally (a node accepting a
// snapshot is by definition far behind; its in-flight transactions read
// stale state, and wounding them mirrors what the skipped remote
// updates would have done one by one). Invoked by the broadcast layer
// from delivery context, in order with surrounding deliveries.
func (n *Node) installSnap(state any, have, prev map[netsim.NodeID]uint64) {
	snap, ok := state.(nodeSnap)
	if !ok {
		return // offers from a Snapshotter-less peer only move prefixes
	}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KSnapInstall, Arg: int64(snap.numVals())})
	}
	for _, t := range n.activeSnapshot() {
		n.sh.stats.Wounds.Add(1)
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KWound, Txn: t.id, Note: "snapshot install"})
		}
		n.abortBlocked(t, ErrWounded)
	}
	n.applySnap(snap, have, prev)
	n.snapJournal = append(n.snapJournal, snapJournalEntry{snap: snap, have: have, prev: prev})
}

// posLE reports a ≤ b in stream order.
func posLE(a, b txn.FragPos) bool { return a == b || a.Less(b) }

// applySnap folds snapshot state into the node. have is the broadcast
// prefix vector the snapshot reflects and prev this node's delivered
// vector just before the fast-forward: together they decide dominance —
// for a quasi-transaction buffered at home node h, the snapshot's view
// of its fate is authoritative iff have[h] > prev[h] (the snapshot has
// seen strictly more of h's stream than we had). Shared between live
// installation and crash-restart journal replay, so it must be
// idempotent: value merges are Pos-dominance tests and commutative
// replays deduplicate on transaction id.
func (n *Node) applySnap(snap nodeSnap, have, prev map[netsim.NodeID]uint64) {
	ahead := func(home netsim.NodeID) bool { return have[home] > prev[home] }

	// Database versions: per-object dominance merge, skipping fragments
	// this node does not replicate and commutative fragments (replayed
	// below so triggers fire).
	for id, vals := range snap.Vals {
		f, ok := n.sh.cat.Fragment(id)
		if !ok || !n.sh.IsReplica(id, n.id) || n.sh.IsCommutative(id) {
			continue
		}
		n.store.MergeSnapshot(f, vals)
	}

	// Non-commutative streams: advance positions and reconcile buffers.
	frags := make([]fragments.FragmentID, 0, len(snap.Streams))
	for f := range snap.Streams {
		frags = append(frags, f)
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i] < frags[j] })
	for _, f := range frags {
		if !n.sh.IsReplica(f, n.id) {
			continue
		}
		s := snap.Streams[f]
		st := n.stream(f)
		if st.last.Less(s.Last) {
			st.last = s.Last
		}
		// Buffers at or below the merged position are superseded (their
		// effects, if committed, are in the merged versions).
		for p := range st.pending {
			if posLE(p, st.last) {
				delete(st.pending, p)
			}
		}
		for id, q := range st.prepared {
			if posLE(q.Pos, st.last) {
				delete(st.prepared, id)
				continue
			}
			// The snapshot saw past our view of this entry's home stream
			// and does not hold it prepared: its commit or abort command
			// lay in the skipped region, so the entry must not linger
			// (a committed one is already in the merged versions).
			if _, held := s.Prepared[id]; !held && ahead(q.Home) {
				delete(st.prepared, id)
			}
		}
		// Adopt the snapshot's in-flight buffers for skipped stream
		// regions: their resolution arrives in the retained tail.
		for p, q := range s.Pending {
			if _, ok := st.pending[p]; ok || posLE(p, st.last) || !ahead(q.Home) {
				continue
			}
			st.pending[p] = q
		}
		for id, q := range s.Prepared {
			if _, ok := st.prepared[id]; ok || posLE(q.Pos, st.last) || !ahead(q.Home) {
				continue
			}
			st.prepared[id] = q
		}
		n.notifyStreamWaiters(st)
		n.drainStream(f, st)
	}

	// Commutative fragments: replay the snapshot's installed
	// quasi-transactions through the normal unordered path — WAL records
	// and application triggers (corrective actions at a central office)
	// fire exactly as for delivered updates; seen ids deduplicate.
	cfrags := make([]fragments.FragmentID, 0, len(snap.Applied))
	for f := range snap.Applied {
		cfrags = append(cfrags, f)
	}
	sort.Slice(cfrags, func(i, j int) bool { return cfrags[i] < cfrags[j] })
	for _, f := range cfrags {
		if !n.sh.IsReplica(f, n.id) {
			continue
		}
		st := n.stream(f)
		for _, q := range snap.Applied[f] {
			if st.seen[q.Txn] {
				continue
			}
			st.seen[q.Txn] = true
			n.applyQuasiUnordered(f, st, q)
		}
		n.notifyStreamWaiters(st)
	}
}
