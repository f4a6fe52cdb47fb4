package core

import (
	"math/rand"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// The sharded apply path (Config.ApplyShards > 1) replaces the serial
// quasi-transaction drain with per-shard apply workers. Every fragment
// hashes to one shard (the same mapping the sharded lock manager uses,
// so a shard worker's lock acquisitions stay inside its own lock
// shard), and each shard installs the contiguous pending runs of its
// fragments independently: runs of disjoint fragments overlap in
// virtual time, each run paying one combined lock acquisition and one
// ApplyLatency installation window.
//
// Determinism contract: under netsim everything below runs on the
// single-threaded scheduler. "Parallelism" is overlap of ApplyLatency
// windows in virtual time, sequenced by the scheduler's (time, seq)
// order; the only randomness is the pickup jitter drawn from a
// dedicated per-node rand.Rand seeded from Config.Seed, so a given
// seed always yields the same interleaving — chaos repros stay
// byte-identical. Within one fragment, runs never overlap
// (streamState.applying is the per-fragment latch), preserving the
// paper's per-stream total order; across fragments no ordering is
// promised, exactly the independence Section 4 grants disjoint
// fragments.

// applyShardState is one apply shard's dispatch slot: the fragments
// with a dispatched run waiting for the shard, and whether the shard
// is currently occupied (from pickup through installation).
type applyShardState struct {
	queue []fragments.FragmentID
	busy  bool
}

// applyState is a node's sharded-apply scheduler. Crash recovery
// replaces the whole value, so scheduled closures guard on pointer
// identity (n.apply == as) to die with the incarnation that made them.
type applyState struct {
	shards []applyShardState
	// rng staggers shard pickups. A dedicated generator — not the
	// scheduler's — so enabling sharding does not perturb the draw
	// sequence of existing seeded scenarios (loss, latency).
	rng *rand.Rand
}

func newApplyState(cl *Cluster, id netsim.NodeID) *applyState {
	return &applyState{
		shards: make([]applyShardState, cl.cfg.ApplyShards),
		rng:    rand.New(rand.NewSource(cl.cfg.Seed ^ (int64(id)+1)*0x1e3779b97f4a7c15)),
	}
}

// ShardOfFragment maps a fragment to its apply (and lock) shard index
// — 0 whenever the sharded apply path is disabled.
func (cl *Cluster) ShardOfFragment(f fragments.FragmentID) int {
	return lock.HashShard(string(f), cl.cfg.ApplyShards)
}

// dispatchShard is the sharded replacement for the serial drain loop:
// if fragment f has its next-in-order quasi-transaction pending, latch
// the stream and queue the fragment on its shard. An idle shard
// schedules its pickup after a seeded jitter so concurrently dispatched
// shards interleave reproducibly rather than in enqueue order.
func (n *Node) dispatchShard(f fragments.FragmentID, st *streamState) {
	if st.applying {
		return
	}
	if n.batchFrags != nil {
		// Mid-burst: note the fragment; the burst's end dispatches it
		// once, after every payload of the batch has been ingested, so
		// the whole batch rides one lock acquisition per fragment.
		n.batchFrags[f] = st
		return
	}
	if _, ok := st.pending[st.last.Next()]; !ok {
		return
	}
	st.applying = true
	as := n.apply
	si := n.cl.ShardOfFragment(f)
	s := &as.shards[si]
	s.queue = append(s.queue, f)
	if s.busy {
		return
	}
	s.busy = true
	jitter := simtime.Duration(as.rng.Int63n(int64(n.cl.cfg.ApplyLatency)/2 + 1))
	n.cl.sched.After(jitter, func() {
		if n.apply != as {
			return // crash/restart replaced this scheduler
		}
		n.shardStep(as, si)
	})
}

// shardStep runs one shard's dispatch loop: pop the next queued
// fragment, re-collect its contiguous pending run (the pending set may
// have shifted since dispatch — snapshot merges, epoch switches), and
// acquire the run's combined write set in one pass. A fully granted
// run installs after ApplyLatency with the shard held busy; a run
// parked on locks frees the shard for its other fragments and installs
// later via onGrants.
func (n *Node) shardStep(as *applyState, si int) {
	s := &as.shards[si]
	for {
		if len(s.queue) == 0 {
			s.busy = false
			return
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		st := n.stream(f)
		run := collectRun(st)
		if len(run) == 0 {
			// The dispatched work was consumed by a snapshot merge or
			// dropped by an epoch switch while queued.
			st.applying = false
			n.notifyStreamWaiters(st)
			continue
		}
		busy := 0
		for i := range as.shards {
			if as.shards[i].busy {
				busy++
			}
		}
		n.cl.stats.ApplyParallelism.Observe(simtime.Duration(busy))
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KShardApply, Txn: run[0].Txn,
				Frag: f, Pos: run[0].Pos, Seq: uint64(si), Arg: int64(len(run))})
		}
		w := &quasiWaiter{q: run[0], f: f, st: st, ordered: true,
			run: run, shardIdx: si, slotHeld: true,
			remaining: make(map[fragments.ObjectID]bool)}
		n.acquireRun(w)
		if w.scheduled {
			return // a wound-release granted the rest mid-acquisition
		}
		if len(w.remaining) == 0 {
			n.scheduleInstall(as, w)
			return
		}
		w.slotHeld = false
	}
}

// collectRun pulls the longest contiguous pending run starting at the
// stream's next position. The quasis stay in st.pending until actually
// installed, so snapshot capture keeps shipping them while in flight.
func collectRun(st *streamState) []txn.Quasi {
	var run []txn.Quasi
	next := st.last.Next()
	for {
		q, ok := st.pending[next]
		if !ok {
			return run
		}
		run = append(run, q)
		next = next.Next()
	}
}

// runWriteObjects returns the union of the run's write sets in sorted
// order — one combined lock acquisition per fragment per run.
func runWriteObjects(run []txn.Quasi) []fragments.ObjectID {
	seen := make(map[fragments.ObjectID]bool)
	var out []fragments.ObjectID
	for _, q := range run {
		for _, wo := range q.Writes {
			if !seen[wo.Object] {
				seen[wo.Object] = true
				out = append(out, wo.Object)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// acquireRun takes exclusive locks on the run's combined write set
// under the run's group owner (the first quasi's transaction id),
// wounding local holders on deadlock exactly like the serial path.
// Objects still queued afterwards land in w.remaining; onGrants
// schedules the installation when the last one arrives.
func (n *Node) acquireRun(w *quasiWaiter) {
	owner := w.q.Txn
	if n.quasiWaiters == nil {
		n.quasiWaiters = make(map[txn.ID]*quasiWaiter)
	}
	n.quasiWaiters[owner] = w
	for _, o := range runWriteObjects(w.run) {
		granted, err := n.locks.Acquire(owner, o, lock.Exclusive)
		if err != nil {
			n.woundHolders(o, owner)
			granted, err = n.locks.Acquire(owner, o, lock.Exclusive)
			if err != nil {
				granted = false
			}
		}
		if !granted {
			w.remaining[o] = true
		}
	}
}

// scheduleInstall installs a fully granted run after the apply
// latency. Idempotent per waiter: a wound-release inside acquireRun
// can complete the grant set before the acquisition loop finishes, in
// which case both onGrants and shardStep reach here.
func (n *Node) scheduleInstall(as *applyState, w *quasiWaiter) {
	if w.scheduled {
		return
	}
	w.scheduled = true
	n.cl.sched.After(n.cl.cfg.ApplyLatency, func() {
		if n.apply != as {
			return
		}
		n.installRun(as, w)
	})
}

// installRun installs the run's quasi-transactions in stream order,
// revalidating each against the live stream state: a snapshot merge or
// epoch switch that advanced the stream while the run was in flight
// simply makes the stale entries no-ops. Then it releases the group
// owner's locks, unlatches the stream, and keeps the shard moving.
func (n *Node) installRun(as *applyState, w *quasiWaiter) {
	st := w.st
	owner := w.q.Txn
	var installed []txn.Quasi
	for _, q := range w.run {
		if q.Pos != st.last.Next() {
			continue
		}
		if _, ok := st.pending[q.Pos]; !ok {
			continue
		}
		delete(st.pending, q.Pos)
		n.ensureCataloged(w.f, q.Writes)
		n.store.ApplyQuasi(q)
		st.last = q.Pos
		n.cl.stats.QuasiApplied.Add(1)
		lag := n.cl.sched.Now().Sub(q.Stamp)
		n.cl.stats.QuasiLag.Observe(lag)
		n.cl.reg.IncApply(w.f, q.Home)
		n.cl.reg.ObserveQuasiLag(w.f, q.Home, lag)
		if n.tr.Enabled() {
			n.tr.Emit(trace.Event{Kind: trace.KQuasiApply, Txn: q.Txn,
				Frag: w.f, Pos: q.Pos, Peer: q.Home, HasPeer: true, Dur: lag})
		}
		installed = append(installed, q)
	}
	delete(n.quasiWaiters, owner)
	grants := n.locks.Release(owner)
	st.applying = false
	n.onGrants(grants)
	if n.cl.onQuasiApplied != nil {
		for _, q := range installed {
			n.cl.onQuasiApplied(n.id, q)
		}
	}
	n.notifyStreamWaiters(st)
	n.dispatchShard(w.f, st)
	if w.slotHeld {
		n.shardStep(as, w.shardIdx)
	}
}

// nodeBurstSink adapts a node to broadcast.BurstSink: during a
// multi-delivery drain (a DataBatch arrival, a repair suffix) shard
// dispatch is deferred so each fragment touched by the batch is
// dispatched — and takes its locks — exactly once.
type nodeBurstSink struct{ n *Node }

func (s nodeBurstSink) BeginBurst() {
	if s.n.batchFrags == nil {
		s.n.batchFrags = make(map[fragments.FragmentID]*streamState)
	}
}

func (s nodeBurstSink) EndBurst() {
	n := s.n
	frags := n.batchFrags
	n.batchFrags = nil
	if len(frags) == 0 {
		return
	}
	// Dispatch in fragment-ID order: deterministic, and consistent with
	// the shard-ordering protocol's ascending discipline.
	ids := make([]fragments.FragmentID, 0, len(frags))
	for f := range frags {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, f := range ids {
		n.dispatchShard(f, frags[f])
	}
}

// txnSpansShards reports whether a transaction's access set — its
// update fragment plus every fragment it read — touches more than one
// apply shard (the transactions the fragment-ID shard-ordering
// protocol exists for).
func (n *Node) txnSpansShards(t *activeTxn) bool {
	first := -1
	spans := func(f fragments.FragmentID) bool {
		si := n.cl.ShardOfFragment(f)
		if first == -1 {
			first = si
			return false
		}
		return si != first
	}
	if t.spec.Fragment != "" && spans(t.spec.Fragment) {
		return true
	}
	for _, r := range t.reads {
		if f, ok := n.cl.cat.FragmentOf(r.Object); ok && spans(f) {
			return true
		}
	}
	return false
}
