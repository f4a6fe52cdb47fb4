package lock

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
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
// sets, waiting marks. Empty means empty.
func leftovers(m *Manager) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.table)+len(m.held)+len(m.waiting) == 0 {
		return ""
	}
	return fmt.Sprintf("%d table entries, %d held sets, %d waiting",
		len(m.table), len(m.held), len(m.waiting))
}

// The table follows the locks in force, not the objects ever locked: N
// cycles over N distinct objects leave nothing behind.
func TestReleaseForgetsUncontendedObjects(t *testing.T) {
	m := NewManager()
	const n = 1000
	for i := 0; i < n; i++ {
		tid := id(uint64(i + 1))
		mustGrant(t, m, tid, fmt.Sprintf("f%d.o%d", i%7, i), Exclusive)
		mustGrant(t, m, tid, fmt.Sprintf("f%d.r%d", i%5, i), Shared)
		if got := m.TableEntries(); got != 2 {
			t.Fatalf("cycle %d: %d entries while holding two locks", i, got)
		}
		m.Release(tid)
	}
	if got := m.TableEntries(); got != 0 {
		t.Errorf("%d entries after %d cycles, want 0", got, n)
	}
	if l := leftovers(m); l != "" {
		t.Error(l)
	}
	// The free lists are bounded by the peak: two objects, one holder.
	if e, h := len(m.freeEntries), len(m.freeHeld); e != 2 || h != 1 {
		t.Errorf("free lists hold %d entries, %d held lists; want 2, 1", e, h)
	}
}

// Contended objects are forgotten too, once every waiter has been
// granted and has released — and a waiter that gives up while queued
// (the engine's abort path) takes its request with it.
func TestReleaseForgetsContendedObjects(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "f0.hot", Exclusive)
	mustGrant(t, m, id(1), "f1.side", Shared)
	mustQueue(t, m, id(2), "f0.hot", Shared)
	mustQueue(t, m, id(3), "f0.hot", Shared)
	mustQueue(t, m, id(4), "f0.hot", Exclusive)
	mustQueue(t, m, id(5), "f0.hot", Exclusive)
	if g := m.Release(id(5)); len(g) != 0 { // gives up while queued
		t.Fatalf("abandoning a queued request granted %v", g)
	}
	if g := m.Release(id(1)); len(g) != 2 {
		t.Fatalf("grants after first release = %v, want both readers", g)
	}
	if got := m.TableEntries(); got != 1 {
		t.Fatalf("%d entries with f0.hot still held, want 1", got)
	}
	m.Release(id(2))
	if g := m.Release(id(3)); len(g) != 1 || g[0].Txn != id(4) {
		t.Fatalf("grants after readers left = %v, want the writer", g)
	}
	m.Release(id(4))
	if l := leftovers(m); l != "" {
		t.Error(l)
	}
}

// The manager is driven from one goroutine while another reads it, the
// way a hanode /metrics scrape runs beside the node's event loop. Run
// under -race; the table must come out empty.
func TestTableEntriesWhileLocking(t *testing.T) {
	m := NewManager()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = m.TableEntries()
			_ = m.Holds(id(1), obj("hot"), Shared)
			_ = m.Holders(obj("hot"))
		}
	}()
	for i := 0; i < 2000; i++ {
		a, b, c := id(uint64(3*i+1)), id(uint64(3*i+2)), id(uint64(3*i+3))
		own := fmt.Sprintf("o%d", i)
		mustGrant(t, m, a, "hot", Exclusive)
		mustGrant(t, m, a, own, Exclusive)
		mustQueue(t, m, b, "hot", Shared)
		mustQueue(t, m, c, "hot", Exclusive)
		if g := m.Release(a); len(g) != 1 || g[0].Txn != b {
			t.Fatalf("cycle %d: grants after holder left = %v, want the reader", i, g)
		}
		if g := m.Release(b); len(g) != 1 || g[0].Txn != c {
			t.Fatalf("cycle %d: grants after reader left = %v, want the writer", i, g)
		}
		m.Release(c)
	}
	close(done)
	wg.Wait()
	if l := leftovers(m); l != "" {
		t.Error(l)
	}
}

// An entry someone still waits on stays, holder or no holder: dropping
// it would lose the queued request.
func TestEntryWithWaiterIsKept(t *testing.T) {
	m := NewManager()
	e := m.entryFor(obj("x"))
	e.queue = append(e.queue, request{id: id(7), mode: Exclusive})
	m.dropIfIdle(obj("x"), e)
	if m.table[obj("x")] != e {
		t.Fatal("entry with a queued request and no holder was dropped")
	}
	e.queue = nil
	e.addHolder(id(8), Shared)
	m.dropIfIdle(obj("x"), e)
	if m.table[obj("x")] != e {
		t.Fatal("entry with a holder was dropped")
	}
	e.removeHolder(id(8))
	m.dropIfIdle(obj("x"), e)
	if len(m.table) != 0 {
		t.Fatal("idle entry was kept")
	}
}

// Once the table has seen a workload's peak, a lock cycle reuses the
// entries and held lists it freed: the commit path's uncontended
// acquire-release, a pair of readers, and a sole reader's upgrade all
// run without allocating.
func TestLockCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b, x := id(1), id(2), obj("f0.x")
	for _, tc := range []struct {
		name  string
		cycle func(m *Manager)
	}{
		{"X acquire+release", func(m *Manager) {
			m.Acquire(a, x, Exclusive)
			m.Release(a)
		}},
		{"S+S pair", func(m *Manager) {
			m.Acquire(a, x, Shared)
			m.Acquire(b, x, Shared)
			m.Release(a)
			m.Release(b)
		}},
		{"sole-holder S->X upgrade", func(m *Manager) {
			m.Acquire(a, x, Shared)
			m.Acquire(a, x, Exclusive)
			m.Release(a)
		}},
	} {
		m := NewManager()
		if n := testing.AllocsPerRun(100, func() { tc.cycle(m) }); n != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", tc.name, n)
		}
		if l := leftovers(m); l != "" {
			t.Errorf("%s: %s", tc.name, l)
		}
	}
}

// A recycled entry or held list starts clean: nothing of the
// transactions, queued requests or objects it served before shows
// through the public API.
func TestRecycledEntryIsClean(t *testing.T) {
	m := NewManager()
	// Leave x's entry with a used queue and t1's held list with two
	// objects, then free both.
	mustGrant(t, m, id(1), "x", Exclusive)
	mustGrant(t, m, id(1), "w", Shared)
	mustQueue(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(3), "x", Exclusive)
	m.Release(id(1))
	m.Release(id(2))
	m.Release(id(3))
	if got := m.TableEntries(); got != 0 {
		t.Fatalf("%d entries after every release, want 0", got)
	}
	// t4 reuses an entry and a held list on an unrelated object.
	mustGrant(t, m, id(4), "y", Shared)
	if got := m.Holders(obj("y")); len(got) != 1 || got[0] != id(4) {
		t.Fatalf("Holders(y) = %v, want [%v]", got, id(4))
	}
	if got := m.NumHeld(id(4)); got != 1 {
		t.Fatalf("NumHeld(t4) = %d, want 1", got)
	}
	for _, old := range []txn.ID{id(1), id(2), id(3)} {
		if m.Holds(old, obj("y"), Shared) || m.NumHeld(old) != 0 {
			t.Fatalf("%v still shows as a holder", old)
		}
	}
	// No stale queued exclusive: a second reader is granted at once, and
	// t4 upgrades only once it is alone again.
	mustGrant(t, m, id(5), "y", Shared)
	mustQueue(t, m, id(4), "y", Exclusive)
	if g := m.Release(id(5)); len(g) != 1 || g[0].Txn != id(4) || g[0].Mode != Exclusive {
		t.Fatalf("grants = %v, want t4's upgrade alone", g)
	}
	if got := m.TableEntries(); got != 1 {
		t.Fatalf("%d entries while only y is held, want 1", got)
	}
	m.Release(id(4))
	if l := leftovers(m); l != "" {
		t.Error(l)
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
	m := NewManager()
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
