package history

import (
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

// TestLocalGraphsOfPaperExample: in the Section 4.3 example, the GLOBAL
// graph is cyclic while every LOCAL graph is acyclic — exactly the
// situation the appendix proof handles (all l.s.g. acyclic does not
// imply the g.s.g. acyclic when the read-access graph is elementarily
// cyclic).
func TestLocalGraphsOfPaperExample(t *testing.T) {
	r := NewRecorder(catalog3(t))
	t1 := txn.ID{Origin: 0, Seq: 1}
	t2 := txn.ID{Origin: 1, Seq: 1}
	t3 := txn.ID{Origin: 2, Seq: 1}
	r.Record(TxnRecord{ID: t3, Type: "F3", UpdateFragment: "F3", Pos: pos(1),
		Writes: []fragments.ObjectID{"c"}, Reads: []ReadObs{{Object: "c", Frag: "F3"}}, Node: 2})
	r.Record(TxnRecord{ID: t2, Type: "F2", UpdateFragment: "F2", Pos: pos(1),
		Writes: []fragments.ObjectID{"b"},
		Reads:  []ReadObs{{Object: "c", Frag: "F3", FromTxn: t3, Pos: pos(1)}}, Node: 1})
	r.Record(TxnRecord{ID: t1, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"},
		Reads: []ReadObs{
			{Object: "c", Frag: "F3"},
			{Object: "b", Frag: "F2", FromTxn: t2, Pos: pos(1)},
		}, Node: 0})

	if err := r.CheckLocalGraphs(); err != nil {
		t.Errorf("local graphs should all be acyclic: %v", err)
	}
	if r.GlobalGraph(Options{}).Acyclic() {
		t.Error("global graph should be cyclic")
	}
	// F1's l.s.g. contains T1 plus the non-local T2 (F2) and T3 (F3)
	// whose fragments T1 read; rule (iv) adds no T2-T3 edge, so the
	// global cycle is invisible locally.
	lg := r.LocalGraph("F1")
	if lg.NumVertices() != 3 {
		t.Errorf("l.s.g.(F1) has %d vertices, want 3", lg.NumVertices())
	}
	if lg.HasEdge(t3, t2) || lg.HasEdge(t2, t3) {
		t.Error("rule (iv) violated: edge between non-local transactions of different types")
	}
	if !lg.HasEdge(t2, t1) {
		t.Error("missing local WR edge T2 -> T1 in l.s.g.(F1)")
	}
	if !lg.HasEdge(t1, t3) {
		t.Error("missing local RW edge T1 -> T3 in l.s.g.(F1)")
	}
}

// TestLocalGraphStreamOrderEdges: rule (iii) orders same-type non-local
// transactions by their stream positions.
func TestLocalGraphStreamOrderEdges(t *testing.T) {
	r := NewRecorder(catalog3(t))
	w1 := txn.ID{Origin: 1, Seq: 1}
	w2 := txn.ID{Origin: 1, Seq: 2}
	rd := txn.ID{Origin: 0, Seq: 1}
	r.Record(TxnRecord{ID: w1, Type: "F2", UpdateFragment: "F2", Pos: pos(1),
		Writes: []fragments.ObjectID{"b"}, Node: 1})
	r.Record(TxnRecord{ID: w2, Type: "F2", UpdateFragment: "F2", Pos: pos(2),
		Writes: []fragments.ObjectID{"b"}, Node: 1})
	r.Record(TxnRecord{ID: rd, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"},
		Reads:  []ReadObs{{Object: "b", Frag: "F2", FromTxn: w1, Pos: pos(1)}}, Node: 0})
	lg := r.LocalGraph("F1")
	if !lg.HasEdge(w1, w2) {
		t.Error("missing rule (iii) stream-order edge")
	}
	// Reader saw w1, so it precedes w2 (RW).
	if !lg.HasEdge(rd, w2) || !lg.HasEdge(w1, rd) {
		t.Error("missing rule (ii) edges")
	}
	if lg.FindCycle() != nil {
		t.Error("unexpected cycle")
	}
}

// TestLocalGraphDetectsLocalCycle: a genuinely broken local schedule
// (lost update within the fragment) surfaces in its own l.s.g.
func TestLocalGraphDetectsLocalCycle(t *testing.T) {
	r := NewRecorder(catalog3(t))
	ta := txn.ID{Origin: 0, Seq: 1}
	tb := txn.ID{Origin: 1, Seq: 1}
	r.Record(TxnRecord{ID: ta, Type: "F1", UpdateFragment: "F1", Pos: pos(1),
		Writes: []fragments.ObjectID{"a"}, Reads: []ReadObs{{Object: "a", Frag: "F1"}}, Node: 0})
	r.Record(TxnRecord{ID: tb, Type: "F1", UpdateFragment: "F1", Pos: pos(2),
		Writes: []fragments.ObjectID{"a"}, Reads: []ReadObs{{Object: "a", Frag: "F1"}}, Node: 1})
	if err := r.CheckLocalGraphs(); err == nil {
		t.Error("local lost-update cycle not detected")
	}
}
