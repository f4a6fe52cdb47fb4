package lock

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

func id(n uint64) txn.ID { return txn.ID{Origin: 0, Seq: n} }

func obj(s string) fragments.ObjectID { return fragments.ObjectID(s) }

func mustGrant(t *testing.T, m *Manager, tid txn.ID, o string, mode Mode) {
	t.Helper()
	ok, err := m.Acquire(tid, obj(o), mode)
	if err != nil || !ok {
		t.Fatalf("Acquire(%v, %s, %v) = %v, %v; want immediate grant", tid, o, mode, ok, err)
	}
}

func mustQueue(t *testing.T, m *Manager, tid txn.ID, o string, mode Mode) {
	t.Helper()
	ok, err := m.Acquire(tid, obj(o), mode)
	if err != nil || ok {
		t.Fatalf("Acquire(%v, %s, %v) = %v, %v; want queued", tid, o, mode, ok, err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(2), "x", Shared)
	if !m.Holds(id(1), obj("x"), Shared) || !m.Holds(id(2), obj("x"), Shared) {
		t.Error("Holds wrong")
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(3), "x", Exclusive)
	if !m.Waiting(id(2)) || !m.Waiting(id(3)) {
		t.Error("Waiting wrong")
	}
	grants := m.Release(id(1))
	// FIFO: id(2) shared first; id(3) exclusive must not be granted
	// while 2 holds shared.
	if len(grants) != 1 || grants[0].Txn != id(2) || grants[0].Mode != Shared {
		t.Fatalf("grants = %+v", grants)
	}
	grants = m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(3) || grants[0].Mode != Exclusive {
		t.Fatalf("grants = %+v", grants)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(1), "x", Exclusive)
	if m.NumHeld(id(1)) != 1 {
		t.Errorf("NumHeld = %d", m.NumHeld(id(1)))
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(1), "x", Exclusive) // upgrade in place
	if !m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("upgrade failed")
	}
}

func TestUpgradeWithOtherHolderQueues(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(1), "x", Exclusive)
	grants := m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(1) || grants[0].Mode != Exclusive {
		t.Fatalf("grants = %+v", grants)
	}
	if !m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("upgrade after release failed")
	}
}

func TestSharedCannotBypassQueuedExclusive(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustQueue(t, m, id(2), "x", Exclusive)
	// A new shared request must queue behind the exclusive, not starve it.
	mustQueue(t, m, id(3), "x", Shared)
	grants := m.Release(id(1))
	if len(grants) != 1 || grants[0].Txn != id(2) {
		t.Fatalf("grants = %+v, want X to id 2 first", grants)
	}
	grants = m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(3) {
		t.Fatalf("grants = %+v, want S to id 3 next", grants)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustGrant(t, m, id(2), "y", Exclusive)
	mustQueue(t, m, id(1), "y", Exclusive)
	ok, err := m.Acquire(id(2), obj("x"), Exclusive)
	if ok || err != ErrDeadlock {
		t.Fatalf("Acquire = %v, %v; want deadlock", ok, err)
	}
	// The denied request must not be queued.
	if m.Waiting(id(2)) {
		t.Error("deadlocked request was queued anyway")
	}
	// Aborting id(2) releases y and unblocks id(1).
	grants := m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(1) || grants[0].Object != obj("y") {
		t.Fatalf("grants = %+v", grants)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(2), "b", Exclusive)
	mustGrant(t, m, id(3), "c", Exclusive)
	mustQueue(t, m, id(1), "b", Exclusive)
	mustQueue(t, m, id(2), "c", Exclusive)
	ok, err := m.Acquire(id(3), obj("a"), Exclusive)
	if ok || err != ErrDeadlock {
		t.Fatalf("3-way deadlock not detected: %v, %v", ok, err)
	}
}

func TestNoFalseDeadlock(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(2), "b", Exclusive)
	// Chain 3 -> a -> (1), 1 not waiting: no cycle.
	mustQueue(t, m, id(3), "a", Exclusive)
	mustQueue(t, m, id(4), "b", Shared)
	if m.Waiting(id(1)) || m.Waiting(id(2)) {
		t.Error("holders marked waiting")
	}
}

func TestReleaseRemovesQueuedRequest(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Exclusive)
	m.Release(id(2)) // abort while queued
	grants := m.Release(id(1))
	if len(grants) != 0 {
		t.Fatalf("grants = %+v, want none (queued request was removed)", grants)
	}
}

func TestReleaseMultipleObjectsDeterministic(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(1), "b", Exclusive)
	mustGrant(t, m, id(1), "c", Exclusive)
	mustQueue(t, m, id(2), "c", Shared)
	mustQueue(t, m, id(3), "a", Shared)
	grants := m.Release(id(1))
	if len(grants) != 2 {
		t.Fatalf("grants = %+v", grants)
	}
	// Deterministic object order: a before c.
	if grants[0].Object != obj("a") || grants[1].Object != obj("c") {
		t.Errorf("grant order = %+v, want a then c", grants)
	}
}

func TestPromoteGrantsMultipleShared(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(3), "x", Shared)
	grants := m.Release(id(1))
	if len(grants) != 2 {
		t.Fatalf("grants = %+v, want both shared granted", grants)
	}
}

func TestHoldsModeSemantics(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	if m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("shared holder reported as exclusive")
	}
	if m.Holds(id(2), obj("x"), Shared) {
		t.Error("non-holder reported as holder")
	}
	if m.Holds(id(1), obj("zzz"), Shared) {
		t.Error("holder of untouched object")
	}
}

func TestStringDump(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	if m.String() == "" {
		t.Error("String dump empty with held locks")
	}
}

// leftovers names whatever a manager still retains: table entries, held
// sets, waiting marks, owner masks. Empty means empty.
func leftovers(m *Manager) string {
	m.lockAll()
	defer m.unlockAll()
	out := ""
	for i, s := range m.shards {
		if len(s.table)+len(s.held)+len(s.waiting) != 0 {
			out += fmt.Sprintf("shard %d: %d table entries, %d held sets, %d waiting; ",
				i, len(s.table), len(s.held), len(s.waiting))
		}
	}
	m.ownerMu.Lock()
	if len(m.owners) != 0 {
		out += fmt.Sprintf("%d owner masks", len(m.owners))
	}
	m.ownerMu.Unlock()
	return out
}

// The table follows the locks in force, not the objects ever locked: N
// cycles over N distinct objects leave nothing behind.
func TestReleaseForgetsUncontendedObjects(t *testing.T) {
	for _, k := range []int{1, 8} {
		m := NewSharded(k, nil)
		const n = 1000
		for i := 0; i < n; i++ {
			tid := id(uint64(i + 1))
			mustGrant(t, m, tid, fmt.Sprintf("f%d.o%d", i%7, i), Exclusive)
			mustGrant(t, m, tid, fmt.Sprintf("f%d.r%d", i%5, i), Shared)
			if got := m.TableEntries(); got != 2 {
				t.Fatalf("k=%d cycle %d: %d entries while holding two locks", k, i, got)
			}
			m.Release(tid)
		}
		if got := m.TableEntries(); got != 0 {
			t.Errorf("k=%d: %d entries after %d cycles, want 0", k, got, n)
		}
		if l := leftovers(m); l != "" {
			t.Errorf("k=%d: %s", k, l)
		}
	}
}

// Contended objects are forgotten too, once every waiter has been
// granted and has released — and a waiter that gives up while queued
// (the engine's abort path) takes its request with it.
func TestReleaseForgetsContendedObjects(t *testing.T) {
	for _, k := range []int{1, 8} {
		m := NewSharded(k, nil)
		mustGrant(t, m, id(1), "f0.hot", Exclusive)
		mustGrant(t, m, id(1), "f1.side", Shared)
		mustQueue(t, m, id(2), "f0.hot", Shared)
		mustQueue(t, m, id(3), "f0.hot", Shared)
		mustQueue(t, m, id(4), "f0.hot", Exclusive)
		mustQueue(t, m, id(5), "f0.hot", Exclusive)
		if g := m.Release(id(5)); len(g) != 0 { // gives up while queued
			t.Fatalf("k=%d: abandoning a queued request granted %v", k, g)
		}
		if g := m.Release(id(1)); len(g) != 2 {
			t.Fatalf("k=%d: grants after first release = %v, want both readers", k, g)
		}
		if got := m.TableEntries(); got != 1 {
			t.Fatalf("k=%d: %d entries with f0.hot still held, want 1", k, got)
		}
		m.Release(id(2))
		if g := m.Release(id(3)); len(g) != 1 || g[0].Txn != id(4) {
			t.Fatalf("k=%d: grants after readers left = %v, want the writer", k, g)
		}
		m.Release(id(4))
		if l := leftovers(m); l != "" {
			t.Errorf("k=%d: %s", k, l)
		}
	}
}

// An entry someone still waits on stays, holder or no holder: dropping
// it would lose the queued request.
func TestEntryWithWaiterIsKept(t *testing.T) {
	m := NewManager()
	s := m.shards[0]
	e := s.entryFor(obj("x"))
	e.queue = append(e.queue, request{id: id(7), mode: Exclusive})
	s.dropIfIdle(obj("x"), e)
	if s.table[obj("x")] != e {
		t.Fatal("entry with a queued request and no holder was dropped")
	}
	e.queue = nil
	e.holders[id(8)] = Shared
	s.dropIfIdle(obj("x"), e)
	if s.table[obj("x")] != e {
		t.Fatal("entry with a holder was dropped")
	}
	delete(e.holders, id(8))
	s.dropIfIdle(obj("x"), e)
	if len(s.table) != 0 {
		t.Fatal("idle entry was kept")
	}
}

var benchSink int

// BenchmarkLockCycle is the commit path's lock traffic in isolation: an
// exclusive lock on an object nobody has locked before, then release.
// retained-B/op is what the manager still holds per cycle after a
// collection — the number that says whether the table leaks.
func BenchmarkLockCycle(b *testing.B) {
	objs := make([]fragments.ObjectID, b.N)
	for i := range objs {
		objs[i] = fragments.ObjectID("f" + strconv.Itoa(i%64) + ".o" + strconv.Itoa(i))
	}
	m := NewSharded(8, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := txn.ID{Origin: 0, Seq: uint64(i + 1)}
		if ok, _ := m.Acquire(tid, objs[i], Exclusive); ok {
			benchSink++
		}
		benchSink += len(m.Release(tid))
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if retained < 0 {
		retained = 0
	}
	b.ReportMetric(retained/float64(b.N), "retained-B/op")
	benchSink += m.TableEntries()
}
