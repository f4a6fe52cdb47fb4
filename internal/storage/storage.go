// Package storage implements the per-node replicated database copy:
// a versioned key-value store over the fragment catalog, with an
// in-memory log of installed transactions and quasi-transactions.
//
// The log stands in for a disk WAL: it survives a simulated crash and
// is read back by the engine's recovery paths. In a process where
// nothing can read it back it is pure cost — kill -9 erases it anyway —
// so such a store is built with NewUnlogged and keeps only the LSN
// counter (DESIGN.md, "What an engine retains per commit").
//
// Every node holds a complete copy of the database (the paper assumes
// full replication for simplicity; Section 3.1). The store is the unit
// compared by the mutual-consistency checker: after quiescence and full
// propagation, all copies of every fragment must be identical.
//
// The value map is striped: each object hashes to one of valStripes
// lock-striped segments, so concurrent appliers installing disjoint
// fragments (see core's sharded apply path) do not serialize on a
// single store mutex. The write-ahead log keeps its own mutex; log
// append order defines LSN order. Operations spanning several stripes
// (snapshots, merges, multi-stripe installs) take stripe locks in
// ascending stripe-index order, mirroring the lock manager's shard
// ordering protocol.
package storage

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// Version is the current value of an object together with provenance:
// which transaction wrote it and when. Data items are timestamped, as
// the no-preparation movement protocol of Section 4.4.3 assumes.
type Version struct {
	Value any
	Txn   txn.ID
	Stamp simtime.Time
	// Pos is the position in the fragment's update stream of the
	// installing (quasi-)transaction (zero for initial loads).
	Pos txn.FragPos
}

// LogRecord is one entry in the store's write-ahead log: a transaction
// or quasi-transaction whose writes were installed atomically.
type LogRecord struct {
	LSN      uint64
	Txn      txn.ID
	Fragment fragments.FragmentID
	Pos      txn.FragPos
	Quasi    bool
	Writes   []txn.WriteOp
	Stamp    simtime.Time
}

// valStripes is the number of lock stripes over the value map. A small
// power of two: enough to keep 8 concurrent appliers from colliding
// often, small enough that whole-store operations stay cheap.
const valStripes = 16

// stripe is one lock-striped segment of the value map.
type stripe struct {
	mu   sync.RWMutex
	vals map[fragments.ObjectID]Version
}

// Store is one node's copy of the database. It is safe for concurrent
// use.
type Store struct {
	node    netsim.NodeID
	cat     *fragments.Catalog
	stripes [valStripes]stripe

	// logMu guards the write-ahead log; it nests inside stripe locks on
	// the install path and is never held while taking a stripe lock.
	logMu sync.Mutex
	log   []LogRecord
	lsn   uint64
	// unlogged stores count LSNs but retain no records (NewUnlogged).
	unlogged bool
}

// New creates an empty store for the given node over the catalog.
func New(node netsim.NodeID, cat *fragments.Catalog) *Store {
	s := &Store{node: node, cat: cat}
	for i := range s.stripes {
		s.stripes[i].vals = make(map[fragments.ObjectID]Version)
	}
	return s
}

// NewUnlogged creates a store that installs and numbers records like
// New's but retains none of them: Log and LogSince stay empty. For a
// process in which nothing can read the log back.
func NewUnlogged(node netsim.NodeID, cat *fragments.Catalog) *Store {
	s := New(node, cat)
	s.unlogged = true
	return s
}

// Node returns the owning node's id.
func (s *Store) Node() netsim.NodeID { return s.node }

// Catalog returns the fragment catalog the store was built over.
func (s *Store) Catalog() *fragments.Catalog { return s.cat }

// stripeOf maps an object to its stripe index.
func stripeOf(o fragments.ObjectID) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(o))
	return int(h.Sum32() % valStripes)
}

// lockAllStripes write-locks every stripe in ascending stripe-index
// order (whole-store operations: snapshots, merges).
func (s *Store) lockAllStripes() {
	for i := 0; i < valStripes; i++ {
		s.stripes[i].mu.Lock()
	}
}

// unlockAllStripes releases every stripe's write lock.
func (s *Store) unlockAllStripes() {
	for i := 0; i < valStripes; i++ {
		s.stripes[i].mu.Unlock()
	}
}

// rlockAllStripes read-locks every stripe in ascending stripe-index
// order.
func (s *Store) rlockAllStripes() {
	for i := 0; i < valStripes; i++ {
		s.stripes[i].mu.RLock()
	}
}

// runlockAllStripes releases every stripe's read lock.
func (s *Store) runlockAllStripes() {
	for i := 0; i < valStripes; i++ {
		s.stripes[i].mu.RUnlock()
	}
}

// Load installs an initial value outside any transaction (database
// population before the simulation starts).
func (s *Store) Load(o fragments.ObjectID, v any) error {
	if _, ok := s.cat.FragmentOf(o); !ok {
		return fmt.Errorf("storage: load of object %q not in catalog", o)
	}
	st := &s.stripes[stripeOf(o)]
	st.mu.Lock()
	st.vals[o] = Version{Value: v}
	st.mu.Unlock()
	return nil
}

// Get returns the current value of an object. The second result is
// false if the object has never been written or loaded.
func (s *Store) Get(o fragments.ObjectID) (any, bool) {
	ver, ok := s.GetVersion(o)
	if !ok {
		return nil, false
	}
	return ver.Value, true
}

// GetVersion returns the full version record for an object.
func (s *Store) GetVersion(o fragments.ObjectID) (Version, bool) {
	st := &s.stripes[stripeOf(o)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	ver, ok := st.vals[o]
	return ver, ok
}

// Apply atomically installs the writes of a locally executed
// transaction and appends a log record.
func (s *Store) Apply(id txn.ID, frag fragments.FragmentID, pos txn.FragPos, writes []txn.WriteOp, stamp simtime.Time) uint64 {
	return s.install(id, frag, pos, false, writes, stamp)
}

// ApplyQuasi atomically installs a quasi-transaction received from a
// remote home node and appends a log record.
func (s *Store) ApplyQuasi(q txn.Quasi) uint64 {
	return s.install(q.Txn, q.Fragment, q.Pos, true, q.Writes, q.Stamp)
}

// install writes the values under their stripes' locks — taken in
// ascending stripe-index order when the write set spans stripes — then
// appends the log record under the log mutex. Atomicity of the value
// updates against readers is provided by the callers' lock-manager
// isolation (an installer holds exclusive object locks), not by the
// store; the stripes only protect map integrity.
func (s *Store) install(id txn.ID, frag fragments.FragmentID, pos txn.FragPos, quasi bool, writes []txn.WriteOp, stamp simtime.Time) uint64 {
	var mask uint32
	for _, w := range writes {
		mask |= 1 << uint(stripeOf(w.Object))
	}
	for i := 0; i < valStripes; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.stripes[i].mu.Lock()
		}
	}
	for _, w := range writes {
		s.stripes[stripeOf(w.Object)].vals[w.Object] = Version{Value: w.Value, Txn: id, Stamp: stamp, Pos: pos}
	}
	for i := 0; i < valStripes; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.stripes[i].mu.Unlock()
		}
	}
	s.logMu.Lock()
	s.lsn++
	lsn := s.lsn
	if !s.unlogged {
		s.log = append(s.log, LogRecord{
			LSN: lsn, Txn: id, Fragment: frag, Pos: pos,
			Quasi: quasi, Writes: writes, Stamp: stamp,
		})
	}
	s.logMu.Unlock()
	return lsn
}

// LSN returns the log sequence number of the last installed record.
func (s *Store) LSN() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.lsn
}

// Log returns a copy of the write-ahead log (empty for an unlogged
// store).
func (s *Store) Log() []LogRecord {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	out := make([]LogRecord, len(s.log))
	copy(out, s.log)
	return out
}

// LogSince returns a copy of log records with LSN > after.
func (s *Store) LogSince(after uint64) []LogRecord {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].LSN > after })
	out := make([]LogRecord, len(s.log)-i)
	copy(out, s.log[i:])
	return out
}

// Snapshot returns a copy of all current object values.
func (s *Store) Snapshot() map[fragments.ObjectID]any {
	s.rlockAllStripes()
	defer s.runlockAllStripes()
	out := make(map[fragments.ObjectID]any)
	for i := range s.stripes {
		for o, v := range s.stripes[i].vals {
			out[o] = v.Value
		}
	}
	return out
}

// FragmentSnapshot returns a copy of the current values of the objects
// of one fragment (used by the move-with-data protocol of Section
// 4.4.2A, which transports the fragment's contents with the agent).
func (s *Store) FragmentSnapshot(frag fragments.FragmentID) map[fragments.ObjectID]Version {
	out := make(map[fragments.ObjectID]Version)
	f, ok := s.cat.Fragment(frag)
	if !ok {
		return out
	}
	s.rlockAllStripes()
	defer s.runlockAllStripes()
	for _, o := range f.Objects() {
		if v, ok := s.stripes[stripeOf(o)].vals[o]; ok {
			out[o] = v
		}
	}
	return out
}

// InstallFragmentSnapshot overwrites the local copy of one fragment
// with a snapshot transported from another node (Section 4.4.2A:
// "transport a copy of the fragment stored at X to store it in place of
// the copy of the fragment at site Y").
func (s *Store) InstallFragmentSnapshot(frag fragments.FragmentID, snap map[fragments.ObjectID]Version) {
	s.lockAllStripes()
	defer s.unlockAllStripes()
	for o, v := range snap {
		s.stripes[stripeOf(o)].vals[o] = v
	}
}

// VersionSnapshot returns a copy of every object's full version record
// (used by snapshot catch-up, which needs Pos provenance to merge).
func (s *Store) VersionSnapshot() map[fragments.ObjectID]Version {
	s.rlockAllStripes()
	defer s.runlockAllStripes()
	out := make(map[fragments.ObjectID]Version)
	for i := range s.stripes {
		for o, v := range s.stripes[i].vals {
			out[o] = v
		}
	}
	return out
}

// MergeSnapshot folds a peer's version snapshot into the store, keeping
// for each object whichever version is later in its fragment's update
// stream (positions within one stream are totally ordered, so the
// comparison is a true dominance test: the receiver may be ahead of the
// snapshot on streams it originates). Snapshot installation is not a
// stream event, so no WAL record is appended — durability of installed
// snapshots is the caller's concern. Returns how many objects changed.
func (s *Store) MergeSnapshot(snap map[fragments.ObjectID]Version) int {
	s.lockAllStripes()
	defer s.unlockAllStripes()
	changed := 0
	for o, v := range snap {
		vals := s.stripes[stripeOf(o)].vals
		cur, ok := vals[o]
		if !ok || cur.Pos.Less(v.Pos) {
			vals[o] = v
			changed++
		}
	}
	return changed
}

// Diff returns the objects whose current values differ between the two
// stores (missing counts as different), in sorted order. Values are
// compared with reflect.DeepEqual so composite values work.
func (s *Store) Diff(other *Store) []fragments.ObjectID {
	a := s.Snapshot()
	b := other.Snapshot()
	var out []fragments.ObjectID
	seen := make(map[fragments.ObjectID]struct{})
	for o, va := range a {
		seen[o] = struct{}{}
		vb, ok := b[o]
		if !ok || !reflect.DeepEqual(va, vb) {
			out = append(out, o)
		}
	}
	for o := range b {
		if _, ok := seen[o]; !ok {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FragmentDiff is like Diff restricted to one fragment's objects.
func (s *Store) FragmentDiff(other *Store, frag fragments.FragmentID) []fragments.ObjectID {
	all := s.Diff(other)
	var out []fragments.ObjectID
	for _, o := range all {
		if f, ok := s.cat.FragmentOf(o); ok && f == frag {
			out = append(out, o)
		}
	}
	return out
}

// Len reports the number of objects with a value.
func (s *Store) Len() int {
	s.rlockAllStripes()
	defer s.runlockAllStripes()
	total := 0
	for i := range s.stripes {
		total += len(s.stripes[i].vals)
	}
	return total
}
