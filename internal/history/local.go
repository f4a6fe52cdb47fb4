package history

import (
	"fmt"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

// LocalGraph builds the local serialization graph for fragment f per
// the paper's Definition 8.3. Its vertex set contains the transactions
// of type f (initiated by A(f)) plus the non-local transactions whose
// fragments f's transactions read. Edges:
//
//	(i)   between two type-f transactions: the standard dependency
//	      rules at the home node (conflicts on f's own objects);
//	(ii)  between a local and a non-local transaction: ordered by
//	      whether the non-local update was installed before the local
//	      read (reads-from observations decide exactly);
//	(iii) between two non-local transactions of the same type: their
//	      installation order, which equals their fragment-stream
//	      position order;
//	(iv)  no edges between non-local transactions of different types.
//
// The paper's theorem premise — "local concurrency control mechanisms
// will guarantee that all the l.s.g.'s are acyclic" — is checkable on
// any run via CheckLocalGraphs.
func (r *Recorder) LocalGraph(f fragments.FragmentID) *Graph {
	recs := r.Transactions()
	g := NewGraph()

	// Local transactions and the foreign fragments they read.
	var locals []TxnRecord
	foreignTypes := make(map[fragments.FragmentID]bool)
	for _, rec := range recs {
		if rec.Type != f || rec.UpdateFragment != f {
			continue
		}
		locals = append(locals, rec)
		g.AddVertex(rec.ID)
		for _, rd := range rec.Reads {
			if rd.Frag != f {
				foreignTypes[rd.Frag] = true
			}
		}
	}
	// Non-local vertices: updates of the foreign fragments read.
	type nonLocal struct {
		id  txn.ID
		pos txn.FragPos
	}
	byType := make(map[fragments.FragmentID][]nonLocal)
	for _, rec := range recs {
		if rec.UpdateFragment == "" || rec.UpdateFragment == f {
			continue
		}
		if !foreignTypes[rec.UpdateFragment] {
			continue
		}
		g.AddVertex(rec.ID)
		byType[rec.UpdateFragment] = append(byType[rec.UpdateFragment],
			nonLocal{id: rec.ID, pos: rec.Pos})
	}
	// (iii): installation (stream) order within each non-local type.
	for _, nls := range byType {
		sort.Slice(nls, func(i, j int) bool { return nls[i].pos.Less(nls[j].pos) })
		for i := 0; i+1 < len(nls); i++ {
			g.AddEdge(nls[i].id, nls[i+1].id)
		}
	}
	// (i): local-local conflicts on f's own objects — reuse the
	// Property 1 construction.
	fg := r.FragmentGraph(f)
	for _, a := range locals {
		for _, b := range locals {
			if a.ID != b.ID && fg.HasEdge(a.ID, b.ID) {
				g.AddEdge(a.ID, b.ID)
			}
		}
	}
	// (ii): local vs non-local via reads-from on foreign objects.
	ch := chains(recs)
	inGraph := func(id txn.ID) bool {
		_, ok := g.vertices[id]
		return ok
	}
	for _, rec := range locals {
		for _, rd := range rec.Reads {
			if rd.Frag == f {
				continue
			}
			if !rd.FromTxn.IsZero() && inGraph(rd.FromTxn) {
				g.AddEdge(rd.FromTxn, rec.ID)
			}
			c, ok := ch[rd.Object]
			if !ok {
				continue
			}
			i := sort.Search(len(c.writers), func(i int) bool {
				return rd.Pos.Less(c.writers[i].pos)
			})
			if i < len(c.writers) && c.writers[i].id != rec.ID && inGraph(c.writers[i].id) {
				g.AddEdge(rec.ID, c.writers[i].id)
			}
		}
	}
	return g
}

// CheckLocalGraphs verifies that every fragment's local serialization
// graph is acyclic — the premise of the Section 4.2 theorem.
func (r *Recorder) CheckLocalGraphs() error {
	if r == nil {
		return nil
	}
	for _, f := range r.cat.Fragments() {
		if cyc := r.LocalGraph(f).FindCycle(); cyc != nil {
			return fmt.Errorf("history: l.s.g. of %s has cycle %v", f, cyc)
		}
	}
	return nil
}
