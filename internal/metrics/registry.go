package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
)

// Metric family names exported beside the labeled Registry. The Prometheus
// exporter (rtnet.writeRegistry) must render every one of these:
// rtnet's TestEveryFamilyRendered reads this file's Fam* constants and
// fails on a family /metrics does not declare.
const (
	// FamFragReads / FamFragWrites count declared read and write
	// accesses per (fragment, origin node) at the home node — the
	// access-pattern matrix adaptive agent placement consumes.
	FamFragReads  = "frag_reads_total"
	FamFragWrites = "frag_writes_total"
	// FamFragCommits / FamFragAborts count transaction outcomes
	// attributed to the fragment whose agent ran the transaction.
	// Aborts carry an additional cause label.
	FamFragCommits = "frag_commits_total"
	FamFragAborts  = "frag_aborts_total"
	// FamFragLockWaits counts lock acquisitions that had to queue.
	FamFragLockWaits = "frag_lock_waits_total"
	// FamFragRemoteDenials counts remote read-lock requests denied at
	// the agent's home (§4.1 read-locks option under contention).
	FamFragRemoteDenials = "frag_remote_denials_total"
	// FamFragApplies counts quasi-transactions installed per fragment,
	// labeled with the originating home node.
	FamFragApplies = "frag_applies_total"
	// FamFragForwards counts old-epoch quasi-transactions forwarded to
	// a moved agent's new home (§4.4.3 rule B(2)).
	FamFragForwards = "frag_forwards_total"
	// FamFragCommitLatency is the per-fragment submit→commit latency
	// histogram.
	FamFragCommitLatency = "frag_commit_latency_seconds"
	// FamFragInfo is an info-style gauge (value always 1) carrying each
	// cataloged fragment's control option and commutativity class — the
	// join key the spectrum uses to map fragments to transaction
	// classes.
	FamFragInfo = "frag_info"
	// FamLockTableEntries is a depth gauge: objects with a lock entry —
	// held or awaited — in the node's lock table right now. It is read
	// from the lock manager at scrape time (the registry keeps no sample
	// for it); a table that grows with objects ever locked, rather than
	// with locks in force, shows here first.
	FamLockTableEntries = "lock_table_entries"
	// FamTCPSendDropped counts sends the TCP transport discarded, by
	// cause: queue_full (broadcast data, which anti-entropy re-sends),
	// control_full (sent once; must stay 0), drop_rule (a partition
	// lever), closed, encode. Read from the transport at scrape time.
	FamTCPSendDropped = "tcp_send_dropped_total"
)

// Label is the key of every labeled sample: the fragment touched and
// the node the activity originated at. Cardinality is bounded by
// catalog size × cluster size — both small, fixed properties of a
// deployment — so the vectors never need eviction.
type Label struct {
	Frag fragments.FragmentID
	Node netsim.NodeID
}

// causeKey extends Label with an abort cause for the aborts vector.
type causeKey struct {
	Label
	Cause string
}

// CounterVec is a monotonically increasing counter family keyed by
// Label. Increments are lock-free after first touch of a label.
type CounterVec struct {
	m sync.Map // Label -> *counterCell
}

type counterCell struct{ n atomic.Uint64 }

// Inc adds one to the label's counter.
func (c *CounterVec) Inc(l Label) { c.Add(l, 1) }

// Add adds delta to the label's counter.
func (c *CounterVec) Add(l Label, delta uint64) {
	if cell, ok := c.m.Load(l); ok {
		cell.(*counterCell).n.Add(delta)
		return
	}
	cell, _ := c.m.LoadOrStore(l, &counterCell{})
	cell.(*counterCell).n.Add(delta)
}

// Counter is a stable handle to one label's cell, for hot paths that
// would otherwise pay the vector's sync.Map lookup (and the interface
// boxing of the Label key) on every increment. Handles never go stale:
// cells are created once and live for the registry's lifetime.
type Counter struct{ cell *counterCell }

// Inc adds one through the handle.
func (c Counter) Inc() { c.cell.n.Add(1) }

// At returns a stable handle to the label's cell, creating the cell on
// first use.
func (c *CounterVec) At(l Label) Counter {
	cell, ok := c.m.Load(l)
	if !ok {
		cell, _ = c.m.LoadOrStore(l, &counterCell{})
	}
	return Counter{cell.(*counterCell)}
}

// Get returns the label's current count (0 when never touched).
func (c *CounterVec) Get(l Label) uint64 {
	if cell, ok := c.m.Load(l); ok {
		return cell.(*counterCell).n.Load()
	}
	return 0
}

// CounterSample is one (label, value) pair of a counter family.
type CounterSample struct {
	Label
	Value uint64
}

// Samples returns all touched labels sorted by (Frag, Node) — a
// deterministic order for text exposition and tests.
func (c *CounterVec) Samples() []CounterSample {
	var out []CounterSample
	c.m.Range(func(k, v any) bool {
		out = append(out, CounterSample{k.(Label), v.(*counterCell).n.Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return labelLess(out[i].Label, out[j].Label) })
	return out
}

func labelLess(a, b Label) bool {
	if a.Frag != b.Frag {
		return a.Frag < b.Frag
	}
	return a.Node < b.Node
}

// CauseVec is a counter family keyed by Label plus a cause string
// (abort causes: timeout, deadlock, wounded, no-majority, remote-deny,
// agent-moving, rejected). Cause strings come from a small fixed
// engine-side set, so cardinality stays bounded.
type CauseVec struct {
	m sync.Map // causeKey -> *counterCell
}

// Inc adds one to the (label, cause) counter.
func (c *CauseVec) Inc(l Label, cause string) {
	k := causeKey{l, cause}
	if cell, ok := c.m.Load(k); ok {
		cell.(*counterCell).n.Add(1)
		return
	}
	cell, _ := c.m.LoadOrStore(k, &counterCell{})
	cell.(*counterCell).n.Add(1)
}

// Get returns the (label, cause) count.
func (c *CauseVec) Get(l Label, cause string) uint64 {
	if cell, ok := c.m.Load(causeKey{l, cause}); ok {
		return cell.(*counterCell).n.Load()
	}
	return 0
}

// CauseSample is one (label, cause, value) sample.
type CauseSample struct {
	Label
	Cause string
	Value uint64
}

// Samples returns all touched (label, cause) pairs sorted by
// (Frag, Node, Cause).
func (c *CauseVec) Samples() []CauseSample {
	var out []CauseSample
	c.m.Range(func(k, v any) bool {
		ck := k.(causeKey)
		out = append(out, CauseSample{ck.Label, ck.Cause, v.(*counterCell).n.Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return labelLess(out[i].Label, out[j].Label)
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// HistogramVec is a histogram family keyed by Label, sharing the
// power-of-two bucket scheme of Histogram.
type HistogramVec struct {
	m sync.Map // Label -> *Histogram
}

// Observe records one sample under the label.
func (h *HistogramVec) Observe(l Label, d time.Duration) {
	if hist, ok := h.m.Load(l); ok {
		hist.(*Histogram).Observe(d)
		return
	}
	hist, _ := h.m.LoadOrStore(l, &Histogram{})
	hist.(*Histogram).Observe(d)
}

// Get returns the label's histogram, or nil when never observed.
func (h *HistogramVec) Get(l Label) *Histogram {
	if hist, ok := h.m.Load(l); ok {
		return hist.(*Histogram)
	}
	return nil
}

// HistSample is one (label, snapshot) pair of a histogram family.
type HistSample struct {
	Label
	Snap HistSnapshot
}

// Samples returns consistent snapshots of all touched labels sorted by
// (Frag, Node).
func (h *HistogramVec) Samples() []HistSample {
	var out []HistSample
	h.m.Range(func(k, v any) bool {
		out = append(out, HistSample{k.(Label), v.(*Histogram).Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return labelLess(out[i].Label, out[j].Label) })
	return out
}

// FragInfo describes one cataloged fragment for the frag_info family:
// which control option governs reads of it and whether its updates
// commute (the two properties that decide a transaction's availability
// class).
type FragInfo struct {
	Option      string
	Commutative bool
}

// Registry is the labeled metrics surface of one process: every node
// of a simulated cluster, or one deployed node. Every cluster builds
// one; there is no switch that turns it off.
//
// Label cardinality contract: Frag ranges over the fragment catalog,
// Node over cluster members, Cause over a fixed engine-side set —
// every vector is O(fragments × nodes), never O(transactions).
type Registry struct {
	Reads         CounterVec
	Writes        CounterVec
	Commits       CounterVec
	Aborts        CauseVec
	LockWaits     CounterVec
	RemoteDenials CounterVec
	Applies       CounterVec
	Forwards      CounterVec
	CommitLatency HistogramVec

	mu    sync.Mutex
	frags map[fragments.FragmentID]FragInfo
}

// NewRegistry returns an empty labeled registry.
func NewRegistry() *Registry {
	return &Registry{frags: make(map[fragments.FragmentID]FragInfo)}
}

// IncRead counts one declared read of frag originating at node.
func (r *Registry) IncRead(f fragments.FragmentID, n netsim.NodeID) {
	r.Reads.Inc(Label{f, n})
}

// IncWrite counts one declared write of frag originating at node.
func (r *Registry) IncWrite(f fragments.FragmentID, n netsim.NodeID) {
	r.Writes.Inc(Label{f, n})
}

// IncCommit counts one committed transaction attributed to frag.
func (r *Registry) IncCommit(f fragments.FragmentID, n netsim.NodeID) {
	r.Commits.Inc(Label{f, n})
}

// ObserveCommitLatency records a committed transaction's latency.
func (r *Registry) ObserveCommitLatency(f fragments.FragmentID, n netsim.NodeID, d time.Duration) {
	r.CommitLatency.Observe(Label{f, n}, d)
}

// IncAbort counts one aborted transaction with its cause.
func (r *Registry) IncAbort(f fragments.FragmentID, n netsim.NodeID, cause string) {
	r.Aborts.Inc(Label{f, n}, cause)
}

// IncLockWait counts one lock acquisition that queued behind a holder.
func (r *Registry) IncLockWait(f fragments.FragmentID, n netsim.NodeID) {
	r.LockWaits.Inc(Label{f, n})
}

// IncRemoteDeny counts one remote lock request denied at the home.
func (r *Registry) IncRemoteDeny(f fragments.FragmentID, n netsim.NodeID) {
	r.RemoteDenials.Inc(Label{f, n})
}

// IncApply counts one quasi-transaction installed for frag, labeled
// with the originating home node.
func (r *Registry) IncApply(f fragments.FragmentID, home netsim.NodeID) {
	r.Applies.Inc(Label{f, home})
}

// IncForward counts one old-epoch quasi-transaction forwarded onward.
func (r *Registry) IncForward(f fragments.FragmentID, n netsim.NodeID) {
	r.Forwards.Inc(Label{f, n})
}

// SetFragInfo records (or updates) a fragment's class metadata.
func (r *Registry) SetFragInfo(f fragments.FragmentID, info FragInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frags[f] = info
}

// FragInfoSample is one fragment's class metadata sample.
type FragInfoSample struct {
	Frag fragments.FragmentID
	Info FragInfo
}

// FragInfos returns the cataloged fragment metadata sorted by id.
func (r *Registry) FragInfos() []FragInfoSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FragInfoSample, 0, len(r.frags))
	for f, info := range r.frags {
		out = append(out, FragInfoSample{f, info})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frag < out[j].Frag })
	return out
}
