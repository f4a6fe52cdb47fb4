package history

import (
	"reflect"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

func catalog3(t *testing.T) *fragments.Catalog {
	t.Helper()
	c := fragments.NewCatalog()
	for _, f := range []struct {
		id   fragments.FragmentID
		objs []fragments.ObjectID
	}{
		{"F1", []fragments.ObjectID{"a"}},
		{"F2", []fragments.ObjectID{"b"}},
		{"F3", []fragments.ObjectID{"c"}},
	} {
		if err := c.AddFragment(f.id, f.objs...); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func pos(seq uint64) txn.FragPos { return txn.FragPos{Seq: seq} }

// TestPaperSection43Example encodes the exact scenario of Figures
// 4.3.1-4.3.2: three fragments, three transactions, and the installation
// order described in the text. The global serialization graph must be
// cyclic (T1 -> T3 -> T2 -> T1) while the history remains fragmentwise
// serializable.
func TestPaperSection43Example(t *testing.T) {
	r := NewRecorder(catalog3(t))
	t1 := txn.ID{Origin: 0, Seq: 1}
	t2 := txn.ID{Origin: 1, Seq: 1}
	t3 := txn.ID{Origin: 2, Seq: 1}

	// T3 (type F3): reads c (initial), writes c.
	r.Record(TxnRecord{
		ID: t3, Type: "F3", UpdateFragment: "F3", Pos: pos(1),
		Writes: []fragments.ObjectID{"c"},
		Reads:  []ReadObs{{Object: "c", Frag: "F3"}}, // initial version
		Node:   2,
	})
	// T2 (type F2): reads c — T3's update was installed at F2's home
	// before the read — writes b.
	r.Record(TxnRecord{
		ID: t2, Type: "F2", UpdateFragment: "F2", Pos: pos(1),
		Writes: []fragments.ObjectID{"b"},
		Reads:  []ReadObs{{Object: "c", Frag: "F3", FromTxn: t3, Pos: pos(1)}},
		Node:   1,
	})
	// T1 (type F1): reads c BEFORE T3's update was installed at F1's
	// home (initial version), reads b AFTER T2's update was installed,
	// writes a.
	r.Record(TxnRecord{
		ID: t1, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"},
		Reads: []ReadObs{
			{Object: "c", Frag: "F3"},                           // initial: generates T1 -> T3
			{Object: "b", Frag: "F2", FromTxn: t2, Pos: pos(1)}, // generates T2 -> T1
		},
		Node: 0,
	})

	g := r.GlobalGraph(Options{})
	if !g.HasEdge(t2, t1) {
		t.Error("missing WR edge T2 -> T1")
	}
	if !g.HasEdge(t1, t3) {
		t.Error("missing RW edge T1 -> T3")
	}
	if !g.HasEdge(t3, t2) {
		t.Error("missing WR edge T3 -> T2")
	}
	if g.Acyclic() {
		t.Error("paper's Figure 4.3.2 cycle not detected")
	}
	if err := r.CheckGlobal(Options{}); err == nil {
		t.Error("CheckGlobal accepted the non-serializable schedule")
	}
	// Fragmentwise serializability still holds (each fragment has a
	// single update transaction, no partial effects).
	if err := r.CheckFragmentwise(); err != nil {
		t.Errorf("CheckFragmentwise: %v", err)
	}
	// The observed read-access graph is Figure 4.3.1's: F1->F2, F1->F3,
	// F2->F3 — directed-acyclic but elementarily cyclic.
	rag := r.ObservedRAG()
	if !rag.Acyclic() || rag.ElementarilyAcyclic() {
		t.Error("observed RAG does not match Figure 4.3.1's classification")
	}
}

// TestAirlineBothFlightsVariant is the Figure 4.3.3 database with each
// customer requesting seats on both flights in one transaction: the
// resulting schedule is NOT globally serializable yet IS fragmentwise
// serializable.
func TestAirlineBothFlightsVariant(t *testing.T) {
	c := fragments.NewCatalog()
	c.AddFragment("C1", "c11", "c12")
	c.AddFragment("C2", "c21", "c22")
	c.AddFragment("Fl1", "f11", "f21")
	c.AddFragment("Fl2", "f12", "f22")
	r := NewRecorder(c)

	tc1 := txn.ID{Origin: 0, Seq: 1}
	tc2 := txn.ID{Origin: 1, Seq: 1}
	tf1 := txn.ID{Origin: 2, Seq: 1}
	tf2 := txn.ID{Origin: 3, Seq: 1}

	r.Record(TxnRecord{ID: tc1, Type: "C1", UpdateFragment: "C1", Pos: pos(1),
		Writes: []fragments.ObjectID{"c11", "c12"}, Node: 0})
	r.Record(TxnRecord{ID: tc2, Type: "C2", UpdateFragment: "C2", Pos: pos(1),
		Writes: []fragments.ObjectID{"c21", "c22"}, Node: 1})
	// TF1 saw TC1's request but not TC2's.
	r.Record(TxnRecord{ID: tf1, Type: "Fl1", UpdateFragment: "Fl1", Pos: pos(1),
		Writes: []fragments.ObjectID{"f11", "f21"},
		Reads: []ReadObs{
			{Object: "c11", Frag: "C1", FromTxn: tc1, Pos: pos(1)},
			{Object: "c21", Frag: "C2"}, // initial -> RW edge TF1 -> TC2
		},
		Node: 2})
	// TF2 saw TC2's request but not TC1's.
	r.Record(TxnRecord{ID: tf2, Type: "Fl2", UpdateFragment: "Fl2", Pos: pos(1),
		Writes: []fragments.ObjectID{"f12", "f22"},
		Reads: []ReadObs{
			{Object: "c12", Frag: "C1"}, // initial -> RW edge TF2 -> TC1
			{Object: "c22", Frag: "C2", FromTxn: tc2, Pos: pos(1)},
		},
		Node: 3})

	g := r.GlobalGraph(Options{})
	// Cycle TF2 -> TC1 -> TF1 -> TC2 -> TF2.
	for _, e := range [][2]txn.ID{{tf2, tc1}, {tc1, tf1}, {tf1, tc2}, {tc2, tf2}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v -> %v", e[0], e[1])
		}
	}
	if g.Acyclic() {
		t.Error("both-flights schedule should be non-serializable")
	}
	if err := r.CheckFragmentwise(); err != nil {
		t.Errorf("CheckFragmentwise: %v", err)
	}
}

// TestAirlineLiteralSchedule encodes the schedule exactly as printed in
// the paper (each customer requests one flight). Our checker finds it
// conflict-serializable (serial witness: TC1, TF1, TC2, TF2) — see
// EXPERIMENTS.md E7 for discussion — and fragmentwise serializable.
func TestAirlineLiteralSchedule(t *testing.T) {
	c := fragments.NewCatalog()
	c.AddFragment("C1", "c11", "c12")
	c.AddFragment("C2", "c21", "c22")
	c.AddFragment("Fl1", "f11", "f21")
	c.AddFragment("Fl2", "f12", "f22")
	r := NewRecorder(c)

	tc1 := txn.ID{Origin: 0, Seq: 1}
	tc2 := txn.ID{Origin: 1, Seq: 1}
	tf1 := txn.ID{Origin: 2, Seq: 1}
	tf2 := txn.ID{Origin: 3, Seq: 1}

	r.Record(TxnRecord{ID: tc1, Type: "C1", UpdateFragment: "C1", Pos: pos(1),
		Writes: []fragments.ObjectID{"c11"}, Node: 0})
	r.Record(TxnRecord{ID: tc2, Type: "C2", UpdateFragment: "C2", Pos: pos(1),
		Writes: []fragments.ObjectID{"c22"}, Node: 1})
	r.Record(TxnRecord{ID: tf1, Type: "Fl1", UpdateFragment: "Fl1", Pos: pos(1),
		Writes: []fragments.ObjectID{"f11", "f21"},
		Reads: []ReadObs{
			{Object: "c11", Frag: "C1", FromTxn: tc1, Pos: pos(1)},
			{Object: "c21", Frag: "C2"},
		}, Node: 2})
	r.Record(TxnRecord{ID: tf2, Type: "Fl2", UpdateFragment: "Fl2", Pos: pos(1),
		Writes: []fragments.ObjectID{"f12", "f22"},
		Reads: []ReadObs{
			{Object: "c12", Frag: "C1"},
			{Object: "c22", Frag: "C2", FromTxn: tc2, Pos: pos(1)},
		}, Node: 3})

	if err := r.CheckGlobal(Options{}); err != nil {
		t.Errorf("literal schedule unexpectedly non-serializable: %v", err)
	}
	if err := r.CheckFragmentwise(); err != nil {
		t.Errorf("CheckFragmentwise: %v", err)
	}
}

func TestProperty1ViolationDetected(t *testing.T) {
	// Two updates to the same fragment that each read the other's
	// pre-state: a classic lost-update cycle within U(F1). This can
	// only arise with unprepared agent movement.
	r := NewRecorder(catalog3(t))
	ta := txn.ID{Origin: 0, Seq: 1}
	tb := txn.ID{Origin: 1, Seq: 1}
	r.Record(TxnRecord{ID: ta, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"},
		Reads:  []ReadObs{{Object: "a", Frag: "F1"}}, // initial
		Node:   0})
	// tb also read the initial version (missed ta's update), then wrote
	// at a later position: ta -> tb (WW) and tb -> ta (RW).
	r.Record(TxnRecord{ID: tb, Type: "F1", UpdateFragment: "F1", Pos: pos(2),
		Writes: []fragments.ObjectID{"a"},
		Reads:  []ReadObs{{Object: "a", Frag: "F1"}}, // initial: missed pos(1)
		Node:   1})
	// RW: tb read pos 0, next writer is ta (pos 1) -> edge tb -> ta.
	// WW: ta (pos1) -> tb (pos2).
	g := r.FragmentGraph("F1")
	if g.Acyclic() {
		t.Error("lost-update cycle within U(F1) not detected")
	}
	if err := r.CheckFragmentwise(); err == nil {
		t.Error("CheckFragmentwise accepted Property 1 violation")
	}
}

func TestProperty2PartialEffectDetected(t *testing.T) {
	// Writer W updates a and b atomically (positions equal); reader R
	// sees W's a but the initial b.
	c := fragments.NewCatalog()
	c.AddFragment("F", "a", "b")
	c.AddFragment("G", "g")
	r := NewRecorder(c)
	w := txn.ID{Origin: 0, Seq: 1}
	rd := txn.ID{Origin: 1, Seq: 1}
	r.Record(TxnRecord{ID: w, Type: "F", UpdateFragment: "F", Pos: pos(1),
		Writes: []fragments.ObjectID{"a", "b"}, Node: 0})
	r.Record(TxnRecord{ID: rd, Type: "G", UpdateFragment: "G", Pos: pos(1),
		Writes: []fragments.ObjectID{"g"},
		Reads: []ReadObs{
			{Object: "a", Frag: "F", FromTxn: w, Pos: pos(1)},
			{Object: "b", Frag: "F"}, // initial: partial effect!
		}, Node: 1})
	pes := r.PartialEffects()
	if len(pes) != 1 {
		t.Fatalf("PartialEffects = %v", pes)
	}
	if pes[0].Reader != rd || pes[0].Writer != w || pes[0].MissedObject != "b" {
		t.Errorf("violation = %+v", pes[0])
	}
	if pes[0].String() == "" {
		t.Error("empty String")
	}
	if err := r.CheckFragmentwise(); err == nil {
		t.Error("CheckFragmentwise accepted Property 2 violation")
	}
}

func TestNoPartialEffectWhenAllSeen(t *testing.T) {
	c := fragments.NewCatalog()
	c.AddFragment("F", "a", "b")
	c.AddFragment("G", "g")
	r := NewRecorder(c)
	w := txn.ID{Origin: 0, Seq: 1}
	rd := txn.ID{Origin: 1, Seq: 1}
	r.Record(TxnRecord{ID: w, Type: "F", UpdateFragment: "F", Pos: pos(1),
		Writes: []fragments.ObjectID{"a", "b"}, Node: 0})
	r.Record(TxnRecord{ID: rd, Type: "G", UpdateFragment: "G", Pos: pos(1),
		Writes: []fragments.ObjectID{"g"},
		Reads: []ReadObs{
			{Object: "a", Frag: "F", FromTxn: w, Pos: pos(1)},
			{Object: "b", Frag: "F", FromTxn: w, Pos: pos(1)},
		}, Node: 1})
	if pes := r.PartialEffects(); len(pes) != 0 {
		t.Errorf("false positive: %v", pes)
	}
}

func TestReadOnlyExclusionFromGlobalGraph(t *testing.T) {
	r := NewRecorder(catalog3(t))
	w := txn.ID{Origin: 0, Seq: 1}
	ro := txn.ID{Origin: 1, Seq: 1}
	r.Record(TxnRecord{ID: w, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"}, Node: 0})
	r.Record(TxnRecord{ID: ro, Type: "", ReadOnly: true,
		Reads: []ReadObs{{Object: "a", Frag: "F1", FromTxn: w, Pos: pos(1)}}, Node: 1})
	if n := r.GlobalGraph(Options{}).NumVertices(); n != 1 {
		t.Errorf("vertices = %d, want 1 (read-only excluded)", n)
	}
	if n := r.GlobalGraph(Options{IncludeReadOnly: true}).NumVertices(); n != 2 {
		t.Errorf("vertices = %d, want 2 (read-only included)", n)
	}
}

func TestEpochOrderingInChains(t *testing.T) {
	// A write at epoch 1 seq 1 supersedes epoch 0 seq 5.
	r := NewRecorder(catalog3(t))
	old := txn.ID{Origin: 0, Seq: 5}
	new_ := txn.ID{Origin: 1, Seq: 1}
	rd := txn.ID{Origin: 2, Seq: 1}
	r.Record(TxnRecord{ID: old, Type: "F1", UpdateFragment: "F1",
		Pos: txn.FragPos{Epoch: 0, Seq: 5}, Writes: []fragments.ObjectID{"a"}, Node: 0})
	r.Record(TxnRecord{ID: new_, Type: "F1", UpdateFragment: "F1",
		Pos: txn.FragPos{Epoch: 1, Seq: 1}, Writes: []fragments.ObjectID{"a"}, Node: 1})
	// Reader saw the old version: RW edge must point to the epoch-1
	// writer (the next version), not nothing.
	r.Record(TxnRecord{ID: rd, Type: "F2", UpdateFragment: "F2", Pos: pos(1),
		Writes: []fragments.ObjectID{"b"},
		Reads:  []ReadObs{{Object: "a", Frag: "F1", FromTxn: old, Pos: txn.FragPos{Epoch: 0, Seq: 5}}},
		Node:   2})
	g := r.GlobalGraph(Options{})
	if !g.HasEdge(old, new_) {
		t.Error("WW edge across epochs missing")
	}
	if !g.HasEdge(rd, new_) {
		t.Error("RW edge across epochs missing")
	}
}

func TestRecorderLenAndTransactionsCopy(t *testing.T) {
	r := NewRecorder(catalog3(t))
	r.Record(TxnRecord{ID: tid(1), Type: "F1", UpdateFragment: "F1", Pos: pos(1)})
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	txns := r.Transactions()
	txns[0].ID = tid(99)
	if r.Transactions()[0].ID != tid(1) {
		t.Error("Transactions returns aliased slice")
	}
}

// A nil recorder is what a deployed single-process engine runs with.
// Every exported method must be callable on it — found by reflection, so
// a method added later is covered without editing this test — and must
// report an empty history.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	rv := reflect.ValueOf(r)
	for i := 0; i < rv.NumMethod(); i++ {
		name := rv.Type().Method(i).Name
		m := rv.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("(*Recorder)(nil).%s panicked: %v", name, p)
				}
			}()
			for _, out := range m.Call(args) {
				if err, ok := out.Interface().(error); ok && err != nil {
					t.Errorf("(*Recorder)(nil).%s = %v, want nil", name, err)
				}
			}
		}()
	}
	r.Record(TxnRecord{ID: txn.ID{Origin: 0, Seq: 1}})
	if r.Len() != 0 || r.Transactions() != nil {
		t.Error("nil recorder kept a record")
	}
	if g := r.GlobalGraph(Options{IncludeReadOnly: true}); g.NumVertices() != 0 {
		t.Error("nil recorder's global graph has vertices")
	}
	if g := r.FragmentGraph("F"); g.NumVertices() != 0 {
		t.Error("nil recorder's fragment graph has vertices")
	}
	if g := r.LocalGraph("F"); g.NumVertices() != 0 {
		t.Error("nil recorder's local graph has vertices")
	}
	if pes := r.PartialEffects(); pes != nil {
		t.Errorf("nil recorder reports partial effects %v", pes)
	}
	if rag := r.ObservedRAG(); len(rag.Vertices()) != 0 || len(rag.Edges()) != 0 {
		t.Error("nil recorder observed a read-access graph")
	}
}
