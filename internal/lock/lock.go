// Package lock implements the per-node lock manager used by the local
// concurrency control mechanism (paper Section 2.2: "at every node in
// the system, a local concurrency control mechanism is implemented").
//
// The manager provides strict two-phase locking: shared and exclusive
// locks acquired incrementally during a transaction's growing phase and
// released all at once at commit or abort. Conflicting requests queue
// in FIFO order. A waits-for graph is maintained and checked on every
// blocked acquisition; if granting the wait would close a cycle, the
// request is denied with ErrDeadlock and the caller is expected to
// abort the requesting transaction.
//
// The manager is a passive, synchronous data structure: it never blocks
// on callers and never spawns goroutines, so it composes with the
// deterministic event simulation.
//
// # Concurrency contract
//
// One table — the object entries, their waiter queues, and the held and
// waiting registries — sits behind one mutex. The engine drives the
// manager from its single event loop; the mutex is there so readers on
// other goroutines (a /metrics scrape calling TableEntries, a test
// calling Holds or Holders) see a consistent table. Calls about
// different transactions may run concurrently; the lifecycle calls of
// one transaction (its Acquires and its final Release) must be
// serialized by the caller. Release frees a transaction's objects in
// sorted object order, so the grant sequence depends only on the call
// sequence, never on map iteration order. Callers park transactions
// whose requests are queued and resume them when Release reports the
// requests as granted.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

// Mode is a lock mode.
type Mode int

// Lock modes: Shared for reads, Exclusive for writes.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrDeadlock is returned by Acquire when queueing the request would
// create a cycle in the waits-for graph.
var ErrDeadlock = errors.New("lock: deadlock detected")

// Grant identifies a queued request that has just been granted by a
// Release call.
type Grant struct {
	Txn    txn.ID
	Object fragments.ObjectID
	Mode   Mode
}

type request struct {
	id   txn.ID
	mode Mode
}

// String renders the request as "T(origin#seq):mode" for String dumps.
func (r request) String() string { return fmt.Sprintf("%v:%v", r.id, r.mode) }

// entry is one object's lock state. It exists only while the object has
// a holder or a queued request: Release drops it from the table with the
// last of them (dropIfIdle), so the table's size follows the locks in
// force, not the objects ever locked. holders is a slice, not a map: a
// holder set is one exclusive holder or a few shared ones, so a linear
// scan beats hashing and an idle entry keeps its capacity for reuse.
type entry struct {
	holders []request
	queue   []request
}

// holderAt returns the index of id among e's holders, or -1.
func (e *entry) holderAt(id txn.ID) int {
	for i, h := range e.holders {
		if h.id == id {
			return i
		}
	}
	return -1
}

// addHolder records id as a new holder of e in the given mode.
func (e *entry) addHolder(id txn.ID, mode Mode) {
	e.holders = append(e.holders, request{id: id, mode: mode})
}

// removeHolder forgets id's hold on e, if any.
func (e *entry) removeHolder(id txn.ID) {
	if i := e.holderAt(id); i >= 0 {
		e.holders = slices.Delete(e.holders, i, i+1)
	}
}

// TraceEvent classifies a lock-manager occurrence reported to the
// OnEvent observer.
type TraceEvent int

// The observable occurrences. Only blocked paths are reported —
// immediately granted requests stay silent so the uncontended hot path
// pays nothing for observation.
const (
	// TraceWait: the request queued behind a conflicting holder.
	TraceWait TraceEvent = iota
	// TraceGrant: a previously queued request was granted by a release.
	TraceGrant
	// TraceDeny: the request was refused by deadlock detection.
	TraceDeny
)

// traceRec is a deferred OnEvent emission: observer calls happen after
// the table mutex is dropped, so the observer may be slow (or take its
// own locks) without extending the manager's critical sections.
type traceRec struct {
	id   txn.ID
	o    fragments.ObjectID
	mode Mode
	ev   TraceEvent
}

// Manager is a lock table for one node.
type Manager struct {
	// mu guards table, held, waiting, the free lists and visited.
	mu    sync.Mutex
	table map[fragments.ObjectID]*entry
	// held[t] lists the objects on which t holds a lock, each once, in
	// grant order.
	held map[txn.ID][]fragments.ObjectID
	// waiting[t] is the object t is queued on (a transaction waits on at
	// most one request at a time).
	waiting map[txn.ID]fragments.ObjectID

	// freeEntries and freeHeld hold idle entries and emptied held lists
	// for reuse, so a lock cycle allocates nothing once the table has
	// seen its peak. Each is bounded by the peak number of locked
	// objects (entries) and lock-holding transactions (held lists).
	freeEntries []*entry
	freeHeld    [][]fragments.ObjectID

	// visited is wouldDeadlockLocked's search set, kept between calls.
	visited map[txn.ID]bool

	// OnEvent, when non-nil, observes blocked-path occurrences (waits,
	// deferred grants, deadlock denials). Installed by the engine when
	// flight-recorder tracing is enabled; must not call back into the
	// Manager. Events are emitted after the table mutex is dropped.
	OnEvent func(id txn.ID, o fragments.ObjectID, mode Mode, ev TraceEvent)
}

// AddObserver chains fn after any observer already installed, so
// independent consumers (flight-recorder tracing, labeled metrics) can
// each watch blocked-path events without coordinating. Call before the
// manager is shared across goroutines; fn obeys the OnEvent contract
// (no callbacks into the Manager).
func (m *Manager) AddObserver(fn func(id txn.ID, o fragments.ObjectID, mode Mode, ev TraceEvent)) {
	if fn == nil {
		return
	}
	prev := m.OnEvent
	if prev == nil {
		m.OnEvent = fn
		return
	}
	m.OnEvent = func(id txn.ID, o fragments.ObjectID, mode Mode, ev TraceEvent) {
		prev(id, o, mode, ev)
		fn(id, o, mode, ev)
	}
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		table:   make(map[fragments.ObjectID]*entry),
		held:    make(map[txn.ID][]fragments.ObjectID),
		waiting: make(map[txn.ID]fragments.ObjectID),
		visited: make(map[txn.ID]bool),
	}
}

// entryFor returns o's entry, installing a recycled or fresh one when o
// has none. Caller holds m.mu.
func (m *Manager) entryFor(o fragments.ObjectID) *entry {
	e, ok := m.table[o]
	if !ok {
		if n := len(m.freeEntries); n > 0 {
			e = m.freeEntries[n-1]
			m.freeEntries[n-1] = nil
			m.freeEntries = m.freeEntries[:n-1]
		} else {
			e = new(entry)
		}
		m.table[o] = e
	}
	return e
}

// dropIfIdle forgets o's entry once nothing holds or awaits it, and
// keeps the entry, empty, for reuse. Caller holds m.mu.
func (m *Manager) dropIfIdle(o fragments.ObjectID, e *entry) {
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.table, o)
		m.freeEntries = append(m.freeEntries, e)
	}
}

// markHeld records that id now holds o. Callers invoke it only when id
// becomes a new holder of o, so the list never repeats an object.
// Caller holds m.mu.
func (m *Manager) markHeld(id txn.ID, o fragments.ObjectID) {
	objs, ok := m.held[id]
	if !ok {
		if n := len(m.freeHeld); n > 0 {
			objs = m.freeHeld[n-1]
			m.freeHeld[n-1] = nil
			m.freeHeld = m.freeHeld[:n-1]
		}
	}
	m.held[id] = append(objs, o)
}

// compatible reports whether a request by id with the given mode can be
// granted given the current holders of e.
func compatible(e *entry, id txn.ID, mode Mode) bool {
	for _, h := range e.holders {
		if h.id == id {
			continue // self-compatibility handled by caller (upgrade)
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// queuedAhead reports whether granting (id, mode) immediately would
// bypass an earlier queued request it conflicts with. Shared requests
// may not jump over a queued Exclusive (writer starvation guard).
func queuedAhead(e *entry, id txn.ID, mode Mode) bool {
	for _, r := range e.queue {
		if r.id == id {
			continue
		}
		if mode == Exclusive || r.mode == Exclusive {
			return true
		}
	}
	return false
}

// Acquire requests a lock on o for transaction id. It returns
// (true, nil) if the lock is granted immediately, (false, nil) if the
// request was queued (the caller must park the transaction until a
// Release reports the grant), and (false, ErrDeadlock) if queueing
// would deadlock (the request is not queued; the caller should abort
// the transaction).
//
// Re-acquiring a held lock is a no-op; a Shared holder requesting
// Exclusive upgrades in place when it is the only holder, otherwise the
// upgrade queues (and is deadlock-checked) like any other request.
func (m *Manager) Acquire(id txn.ID, o fragments.ObjectID, mode Mode) (bool, error) {
	m.mu.Lock()
	e := m.entryFor(o)
	if m.tryGrantLocked(e, id, o, mode) {
		m.mu.Unlock()
		return true, nil
	}
	if m.wouldDeadlockLocked(id, o, mode) {
		m.mu.Unlock()
		m.emit(traceRec{id, o, mode, TraceDeny})
		return false, ErrDeadlock
	}
	e.queue = append(e.queue, request{id: id, mode: mode})
	m.waiting[id] = o
	m.mu.Unlock()
	m.emit(traceRec{id, o, mode, TraceWait})
	return false, nil
}

// tryGrantLocked attempts an immediate grant of o's entry e and reports
// whether it succeeded (including the already-sufficient and
// upgrade-in-place cases). Caller holds m.mu.
func (m *Manager) tryGrantLocked(e *entry, id txn.ID, o fragments.ObjectID, mode Mode) bool {
	if i := e.holderAt(id); i >= 0 {
		if e.holders[i].mode == Exclusive || mode == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X in place when sole holder.
		if len(e.holders) == 1 {
			e.holders[i].mode = Exclusive
			return true
		}
		return false
	}
	if compatible(e, id, mode) && !queuedAhead(e, id, mode) {
		e.addHolder(id, mode)
		m.markHeld(id, o)
		return true
	}
	return false
}

// emit delivers a deferred observer event (no internal locks held).
func (m *Manager) emit(r traceRec) {
	if m.OnEvent != nil {
		m.OnEvent(r.id, r.o, r.mode, r.ev)
	}
}

// wouldDeadlockLocked checks whether blocking id on object o (with the
// given mode) closes a cycle in the waits-for graph. Caller holds m.mu.
func (m *Manager) wouldDeadlockLocked(id txn.ID, o fragments.ObjectID, mode Mode) bool {
	// id would wait for: current incompatible holders of o, plus queued
	// requests it cannot bypass. We approximate the latter by the
	// holders only and the existing queue's transitive waits; this is
	// the standard conservative waits-for construction.
	visited := m.visited
	clear(visited)
	var stack []txn.ID
	push := func(t txn.ID) {
		if t != id && !visited[t] {
			visited[t] = true
			stack = append(stack, t)
		}
	}
	e := m.table[o]
	for _, h := range e.holders {
		if h.id == id {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			push(h.id)
		}
	}
	for _, r := range e.queue {
		if mode == Exclusive || r.mode == Exclusive {
			push(r.id)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == id {
			return true
		}
		// cur waits on some object; it waits for that object's holders
		// and conflicting queued requests ahead of it.
		wo, ok := m.waiting[cur]
		if !ok {
			continue
		}
		we := m.table[wo]
		var curMode Mode
		for _, r := range we.queue {
			if r.id == cur {
				curMode = r.mode
				break
			}
		}
		for _, h := range we.holders {
			if h.id == cur {
				continue
			}
			if curMode == Exclusive || h.mode == Exclusive {
				if h.id == id {
					return true
				}
				push(h.id)
			}
		}
		for _, r := range we.queue {
			if r.id == cur {
				break // only requests ahead of cur
			}
			if curMode == Exclusive || r.mode == Exclusive {
				if r.id == id {
					return true
				}
				push(r.id)
			}
		}
	}
	return false
}

// Release frees every lock held by id, removes any queued request of
// id, and returns the requests that become granted as a result, in
// grant order. The returned transactions' locks are already installed;
// the caller resumes them.
//
// Objects are released in sorted object order, so the grant sequence
// does not depend on map iteration order.
func (m *Manager) Release(id txn.ID) []Grant {
	m.mu.Lock()
	// Remove a pending queued request, if any.
	if o, ok := m.waiting[id]; ok {
		e := m.table[o]
		for qi, r := range e.queue {
			if r.id == id {
				e.queue = slices.Delete(e.queue, qi, qi+1)
				break
			}
		}
		delete(m.waiting, id)
		m.dropIfIdle(o, e)
	}
	objs, ok := m.held[id]
	delete(m.held, id)
	slices.Sort(objs)
	var grants []Grant
	var events []traceRec
	for _, o := range objs {
		e := m.table[o]
		e.removeHolder(id)
		grants = m.promoteLocked(o, e, grants, &events)
		m.dropIfIdle(o, e)
	}
	if ok {
		clear(objs) // drop the object names; the list's capacity is what is kept
		m.freeHeld = append(m.freeHeld, objs[:0])
	}
	m.mu.Unlock()
	for _, r := range events {
		m.emit(r)
	}
	return grants
}

// promoteLocked grants queued requests on o that are now compatible, in
// FIFO order, stopping at the first incompatible request, and appends
// them to grants. Caller holds m.mu; observer events are appended to
// events for emission after the mutex drops.
func (m *Manager) promoteLocked(o fragments.ObjectID, e *entry, grants []Grant, events *[]traceRec) []Grant {
	n := 0
	for _, r := range e.queue {
		if i := e.holderAt(r.id); i >= 0 {
			// A holder queues only to upgrade S -> X.
			if len(e.holders) != 1 {
				break
			}
			e.holders[i].mode = Exclusive
		} else if compatible(e, r.id, r.mode) {
			e.addHolder(r.id, r.mode)
			m.markHeld(r.id, o)
		} else {
			break
		}
		n++
		delete(m.waiting, r.id)
		*events = append(*events, traceRec{r.id, o, r.mode, TraceGrant})
		grants = append(grants, Grant{Txn: r.id, Object: o, Mode: r.mode})
	}
	e.queue = slices.Delete(e.queue, 0, n)
	return grants
}

// Holds reports whether id currently holds a lock on o of at least the
// given mode.
func (m *Manager) Holds(id txn.ID, o fragments.ObjectID, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.table[o]
	if !ok {
		return false
	}
	i := e.holderAt(id)
	return i >= 0 && (e.holders[i].mode == Exclusive || mode == Shared)
}

// Holders returns the transactions currently holding a lock on o, in
// deterministic order.
func (m *Manager) Holders(o fragments.ObjectID) []txn.ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.table[o]
	if !ok {
		return nil
	}
	out := make([]txn.ID, len(e.holders))
	for i, h := range e.holders {
		out[i] = h.id
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Waiting reports whether id has a queued (blocked) request.
func (m *Manager) Waiting(id txn.ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.waiting[id]
	return ok
}

// NumHeld reports how many objects id holds locks on.
func (m *Manager) NumHeld(id txn.ID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[id])
}

// TableEntries reports how many objects currently have a lock entry —
// held or awaited. Safe from any goroutine; it takes the table mutex,
// so it is for scrapes and tests, not for the hot path.
func (m *Manager) TableEntries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.table)
}

// String renders a compact dump of the lock table for debugging.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ""
	for o, e := range m.table {
		out += fmt.Sprintf("%s: holders=%v queue=%v\n", o, e.holders, e.queue)
	}
	return out
}
