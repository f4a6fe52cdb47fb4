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
// The store is the only per-object index of the objects transactions
// create: each Version names its fragment, and the catalog knows only
// the fragments and their declared objects. FragmentOf resolves an
// object through both.
//
// One value map and the log sit behind one RWMutex. The engine installs
// from a single goroutine; the mutex is there for readers on other
// goroutines (scrapes, tests, drivers inspecting a live node).
package storage

import (
	"fmt"
	"reflect"
	"slices"
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
	// Frag is the object's fragment, the catalog's own entry. It does
	// not travel on the wire: a receiver resolves it in its catalog.
	Frag *fragments.Fragment
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

// Store is one node's copy of the database. It is safe for concurrent
// use.
type Store struct {
	node netsim.NodeID
	cat  *fragments.Catalog

	// mu guards vals, log and lsn.
	mu   sync.RWMutex
	vals map[fragments.ObjectID]Version
	log  []LogRecord
	lsn  uint64
	// unlogged stores count LSNs but retain no records (NewUnlogged).
	unlogged bool
}

// New creates an empty store for the given node over the catalog.
func New(node netsim.NodeID, cat *fragments.Catalog) *Store {
	return &Store{node: node, cat: cat, vals: make(map[fragments.ObjectID]Version)}
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

// Load installs an initial value outside any transaction (database
// population before the simulation starts).
func (s *Store) Load(o fragments.ObjectID, v any) error {
	id, ok := s.cat.FragmentOf(o)
	if !ok {
		return fmt.Errorf("storage: load of object %q not in catalog", o)
	}
	f, _ := s.cat.Fragment(id)
	s.mu.Lock()
	s.vals[o] = Version{Value: v, Frag: f}
	s.mu.Unlock()
	return nil
}

// FragmentOf returns the fragment of object o: the catalog's for a
// declared object, else that of its stored version. An object created
// elsewhere and not yet installed here is unknown.
func (s *Store) FragmentOf(o fragments.ObjectID) (fragments.FragmentID, bool) {
	if f, ok := s.cat.FragmentOf(o); ok {
		return f, true
	}
	s.mu.RLock()
	v, ok := s.vals[o]
	s.mu.RUnlock()
	if !ok || v.Frag == nil {
		return "", false
	}
	return v.Frag.ID, true
}

// CheckInitiation enforces the paper's initiation requirement for a
// write of o: "an update transaction T can be initiated by an agent
// A(F) if and only if all data objects modified by T are contained in
// the fragment F". It returns nil if o is in frag or new here (a new
// object is created in frag).
func (s *Store) CheckInitiation(frag fragments.FragmentID, o fragments.ObjectID) error {
	if owner, ok := s.FragmentOf(o); ok && owner != frag {
		return fmt.Errorf("fragments: initiation requirement violated: object %q is in fragment %q, not %q",
			o, owner, frag)
	}
	return nil
}

// Objects returns, in sorted order, the objects of fragment frag that
// hold a value here.
func (s *Store) Objects(frag fragments.FragmentID) []fragments.ObjectID {
	var out []fragments.ObjectID
	for o := range s.FragmentSnapshot(frag) {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	ver, ok := s.vals[o]
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

// install writes the values and appends the log record under the
// store's mutex. Atomicity of the value updates against transactions is
// provided by the callers' lock-manager isolation (an installer holds
// exclusive object locks), not by the store; the mutex only protects
// map and log integrity.
func (s *Store) install(id txn.ID, frag fragments.FragmentID, pos txn.FragPos, quasi bool, writes []txn.WriteOp, stamp simtime.Time) uint64 {
	f, _ := s.cat.Fragment(frag)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range writes {
		s.vals[w.Object] = Version{Value: w.Value, Txn: id, Stamp: stamp, Pos: pos, Frag: f}
	}
	s.lsn++
	if !s.unlogged {
		s.log = append(s.log, LogRecord{
			LSN: s.lsn, Txn: id, Fragment: frag, Pos: pos,
			Quasi: quasi, Writes: writes, Stamp: stamp,
		})
	}
	return s.lsn
}

// LSN returns the log sequence number of the last installed record.
func (s *Store) LSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// Log returns a copy of the write-ahead log (empty for an unlogged
// store).
func (s *Store) Log() []LogRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]LogRecord, len(s.log))
	copy(out, s.log)
	return out
}

// LogSince returns a copy of log records with LSN > after.
func (s *Store) LogSince(after uint64) []LogRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].LSN > after })
	out := make([]LogRecord, len(s.log)-i)
	copy(out, s.log[i:])
	return out
}

// Snapshot returns a copy of all current object values.
func (s *Store) Snapshot() map[fragments.ObjectID]any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[fragments.ObjectID]any, len(s.vals))
	for o, v := range s.vals {
		out[o] = v.Value
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	for o, v := range s.vals {
		if v.Frag == f {
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
	f, _ := s.cat.Fragment(frag)
	s.mu.Lock()
	defer s.mu.Unlock()
	for o, v := range snap {
		v.Frag = f
		s.vals[o] = v
	}
}

// VersionSnapshot returns a copy of every object's full version record,
// by fragment (used by snapshot catch-up, which needs Pos provenance to
// merge).
func (s *Store) VersionSnapshot() map[fragments.FragmentID]map[fragments.ObjectID]Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[fragments.FragmentID]map[fragments.ObjectID]Version)
	for o, v := range s.vals {
		if v.Frag != nil {
			if out[v.Frag.ID] == nil {
				out[v.Frag.ID] = make(map[fragments.ObjectID]Version)
			}
			out[v.Frag.ID][o] = v
		}
	}
	return out
}

// MergeSnapshot folds a peer's version snapshot of fragment f into the
// store, keeping for each object whichever version is later in its
// fragment's update stream (positions within one stream are totally
// ordered, so the comparison is a true dominance test: the receiver may
// be ahead of the snapshot on streams it originates). Snapshot
// installation is not a stream event, so no WAL record is appended —
// durability of installed snapshots is the caller's concern. Returns
// how many objects changed.
func (s *Store) MergeSnapshot(f *fragments.Fragment, snap map[fragments.ObjectID]Version) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := 0
	for o, v := range snap {
		cur, ok := s.vals[o]
		if !ok || cur.Pos.Less(v.Pos) {
			v.Frag = f
			s.vals[o] = v
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
	var out []fragments.ObjectID
	for _, o := range s.Diff(other) {
		f, ok := s.FragmentOf(o)
		if !ok {
			f, _ = other.FragmentOf(o)
		}
		if f == frag {
			out = append(out, o)
		}
	}
	return out
}

// Len reports the number of objects with a value.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.vals)
}
