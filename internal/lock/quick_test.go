package lock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

// The lock manager's safety invariants, checked over random operation
// sequences:
//
//  1. An exclusive holder is the only holder of its object.
//  2. A transaction marked waiting has exactly one queued request, and
//     that request actually conflicts with the current holders or
//     queue.
//  3. Release never leaves a grantable queue head ungranted.
//  4. The same transaction never both holds and waits on one object in
//     a contradictory way.
//
// The model interpreter below shadows the manager with a simple
// reference picture built only from granted/queued events.

type quickOp struct {
	Txn  uint8
	Obj  uint8
	Mode uint8 // 0 shared, 1 exclusive
	Rel  uint8 // every 4th op releases instead
}

func TestQuickLockInvariants(t *testing.T) {
	f := func(ops []quickOp) bool {
		m := NewManager()
		alive := map[txn.ID]bool{}
		for _, op := range ops {
			id := txn.ID{Origin: 0, Seq: uint64(op.Txn % 6)}
			if op.Rel%4 == 0 {
				m.Release(id)
				delete(alive, id)
				continue
			}
			if m.Waiting(id) {
				// A transaction blocks on at most one request at a time;
				// the engine never issues another while parked. Skip.
				continue
			}
			mode := Shared
			if op.Mode%2 == 1 {
				mode = Exclusive
			}
			o := fragments.ObjectID(string(rune('a' + op.Obj%5)))
			granted, err := m.Acquire(id, o, mode)
			if err != nil {
				// Deadlock: the engine aborts the requester.
				m.Release(id)
				delete(alive, id)
				continue
			}
			alive[id] = true
			_ = granted
			if !checkExclusivity(m) {
				return false
			}
		}
		// Drain: releasing everything must leave an empty table with no
		// waiters.
		for id := range alive {
			m.Release(id)
		}
		for i := 0; i < 6; i++ {
			id := txn.ID{Origin: 0, Seq: uint64(i)}
			m.Release(id)
			if m.Waiting(id) {
				return false
			}
		}
		return checkExclusivity(m)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// checkExclusivity verifies invariant 1 for every object the manager
// has seen.
func checkExclusivity(m *Manager) bool {
	for _, o := range allObjects() {
		holders := m.Holders(o)
		if len(holders) <= 1 {
			continue
		}
		// More than one holder: all must be shared.
		for _, h := range holders {
			if m.Holds(h, o, Exclusive) {
				return false
			}
		}
	}
	return true
}

func allObjects() []fragments.ObjectID {
	out := make([]fragments.ObjectID, 5)
	for i := range out {
		out[i] = fragments.ObjectID(string(rune('a' + i)))
	}
	return out
}

// Property: after any sequence of grants and releases, re-acquiring
// every lock from scratch succeeds (the table does not leak holders).
func TestQuickNoLeakedHolders(t *testing.T) {
	f := func(seq []uint8) bool {
		m := NewManager()
		for i, b := range seq {
			id := txn.ID{Origin: 0, Seq: uint64(b % 4)}
			o := fragments.ObjectID(string(rune('a' + (b>>2)%3)))
			if i%3 == 2 {
				m.Release(id)
				continue
			}
			if m.Waiting(id) {
				continue
			}
			if _, err := m.Acquire(id, o, Exclusive); err != nil {
				m.Release(id)
			}
		}
		for i := 0; i < 4; i++ {
			m.Release(txn.ID{Origin: 0, Seq: uint64(i)})
		}
		// A fresh transaction must get every lock immediately.
		fresh := txn.ID{Origin: 9, Seq: 1}
		for _, o := range allObjects()[:3] {
			ok, err := m.Acquire(fresh, o, Exclusive)
			if !ok || err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// --- shard equivalence ------------------------------------------------
//
// The sharded manager must be observationally identical to the 1-shard
// manager. We drive the same random operation sequence — acquires in
// both modes, releases of holding, waiting, and untouched transactions,
// and the engine's abort-on-deadlock reaction — against managers with
// 1, 2, 4, and 8 shards and require identical outcomes at every step:
// grant/queue/deadlock results, Release grant lists (including order),
// observer event streams, and final holder sets.

// obsEvent is one OnEvent occurrence, recorded for comparison.
type obsEvent struct {
	id   txn.ID
	o    fragments.ObjectID
	mode Mode
	ev   TraceEvent
}

// mirror drives one manager and records everything observable about it.
type mirror struct {
	m      *Manager
	events []obsEvent
}

func newMirror(k int) *mirror {
	mi := &mirror{}
	var m *Manager
	if k == 1 {
		m = NewManager()
	} else {
		m = NewSharded(k, nil)
	}
	m.OnEvent = func(id txn.ID, o fragments.ObjectID, mode Mode, ev TraceEvent) {
		mi.events = append(mi.events, obsEvent{id, o, mode, ev})
	}
	mi.m = m
	return mi
}

// eqStep is one operation in a generated equivalence sequence.
type eqStep struct {
	release bool
	id      txn.ID
	o       fragments.ObjectID
	mode    Mode
}

// genSequence builds a random but contract-respecting operation
// sequence: a transaction queued on a request issues no further
// acquires until granted or released. The waiting set is tracked
// against a scratch 1-shard manager, which is valid because every
// manager under test must agree with it step by step.
func genSequence(rng *rand.Rand, steps int) []eqStep {
	scratch := NewManager()
	objs := make([]fragments.ObjectID, 12)
	for i := range objs {
		objs[i] = fragments.ObjectID(fmt.Sprintf("f%d.o%d", i%5, i))
	}
	ids := make([]txn.ID, 8)
	for i := range ids {
		ids[i] = txn.ID{Origin: netsim.NodeID(i % 3), Seq: uint64(i + 1)}
	}
	var out []eqStep
	for len(out) < steps {
		id := ids[rng.Intn(len(ids))]
		if scratch.Waiting(id) || rng.Intn(4) == 0 {
			out = append(out, eqStep{release: true, id: id})
			scratch.Release(id)
			continue
		}
		o := objs[rng.Intn(len(objs))]
		mode := Shared
		if rng.Intn(2) == 0 {
			mode = Exclusive
		}
		out = append(out, eqStep{id: id, o: o, mode: mode})
		if _, err := scratch.Acquire(id, o, mode); err != nil {
			// The engine reacts to deadlock by aborting (releasing) the
			// requester; mirror that so sequences stay realistic.
			out = append(out, eqStep{release: true, id: id})
			scratch.Release(id)
		}
	}
	return out
}

func TestShardEquivalence(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := genSequence(rng, 120)
		mirrors := make([]*mirror, len(shardCounts))
		for i, k := range shardCounts {
			mirrors[i] = newMirror(k)
		}
		base := mirrors[0]
		for si, s := range seq {
			if s.release {
				want := base.m.Release(s.id)
				for _, mi := range mirrors[1:] {
					got := mi.m.Release(s.id)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d: Release(%v) grants %v, 1-shard %v (k=%d)",
							seed, si, s.id, got, want, mi.m.ShardCount())
					}
					for gi := range want {
						if got[gi] != want[gi] {
							t.Fatalf("seed %d step %d: Release(%v) grant[%d] = %v, 1-shard %v (k=%d)",
								seed, si, s.id, gi, got[gi], want[gi], mi.m.ShardCount())
						}
					}
				}
				continue
			}
			wantGranted, wantErr := base.m.Acquire(s.id, s.o, s.mode)
			for _, mi := range mirrors[1:] {
				granted, err := mi.m.Acquire(s.id, s.o, s.mode)
				if granted != wantGranted || (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d: Acquire(%v, %s, %s) = (%v, %v), 1-shard (%v, %v) (k=%d)",
						seed, si, s.id, s.o, s.mode, granted, err, wantGranted, wantErr, mi.m.ShardCount())
				}
			}
		}
		// Final-state checks: identical holder sets, held counts, waiting
		// flags, and observer event streams.
		for _, mi := range mirrors[1:] {
			for _, s := range seq {
				if s.o == "" {
					continue
				}
				want := base.m.Holders(s.o)
				got := mi.m.Holders(s.o)
				if len(want) != len(got) {
					t.Fatalf("seed %d: Holders(%s) = %v, 1-shard %v (k=%d)",
						seed, s.o, got, want, mi.m.ShardCount())
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("seed %d: Holders(%s)[%d] = %v, 1-shard %v (k=%d)",
							seed, s.o, i, got[i], want[i], mi.m.ShardCount())
					}
				}
				if base.m.Waiting(s.id) != mi.m.Waiting(s.id) ||
					base.m.NumHeld(s.id) != mi.m.NumHeld(s.id) {
					t.Fatalf("seed %d: txn %v state diverges (k=%d)", seed, s.id, mi.m.ShardCount())
				}
			}
			if len(base.events) != len(mi.events) {
				t.Fatalf("seed %d: %d observer events, 1-shard %d (k=%d)",
					seed, len(mi.events), len(base.events), mi.m.ShardCount())
			}
			for i := range base.events {
				if base.events[i] != mi.events[i] {
					t.Fatalf("seed %d: event[%d] = %+v, 1-shard %+v (k=%d)",
						seed, i, mi.events[i], base.events[i], mi.m.ShardCount())
				}
			}
		}
	}
}

// Property: whatever happened before — grants, waits, upgrades, denied
// deadlocks, abandoned requests — once every transaction has released,
// the manager retains nothing, at any shard count. One pass suffices: a
// release can only grant to a transaction that has not released yet.
func TestQuickDrainLeavesNothing(t *testing.T) {
	f := func(seed int64) bool {
		seq := genSequence(rand.New(rand.NewSource(seed)), 120)
		for _, k := range []int{1, 2, 4, 8} {
			m := NewSharded(k, nil)
			ids := map[txn.ID]bool{}
			for _, s := range seq {
				ids[s.id] = true
				if s.release {
					m.Release(s.id)
				} else {
					_, _ = m.Acquire(s.id, s.o, s.mode) // denial is followed by a release step
				}
			}
			for id := range ids {
				m.Release(id)
			}
			if l := leftovers(m); l != "" {
				t.Logf("seed %d k=%d: %s", seed, k, l)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestShardPlacementSpread sanity-checks that the default hash actually
// spreads a realistic object population across shards (a degenerate
// all-on-one-shard hash would make the equivalence test vacuous).
func TestShardPlacementSpread(t *testing.T) {
	m := NewSharded(8, nil)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		seen[m.ShardOf(fragments.ObjectID(fmt.Sprintf("f%d.x", i)))] = true
	}
	if len(seen) < 4 {
		t.Fatalf("64 objects landed on only %d of 8 shards", len(seen))
	}
}
