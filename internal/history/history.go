// Package history records transaction executions and audits them
// against the paper's correctness criteria:
//
//   - Global serializability, via the global serialization graph of
//     Definition 8.2 (acyclicity <=> serializability).
//   - Fragmentwise serializability (Section 4.3): Property 1 — the
//     schedule restricted to U(Fi), the transactions updating fragment
//     Fi, is serializable for every i — and Property 2 — no transaction
//     ever sees a partial effect of a transaction in U(Fi).
//   - The observed read-access graph, to confirm a workload stayed
//     within its declared read pattern (the Section 4.2 theorem's
//     precondition).
//
// The recorder exploits a structural property of the fragments-and-
// agents model: all updates to a fragment form a single totally-ordered
// stream (positions txn.FragPos), so the version order of every object
// is known exactly, and reads-from relationships are recorded directly
// by the executing node. This makes the serialization-graph
// construction exact rather than approximate.
package history

import (
	"fmt"
	"sort"
	"sync"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// ReadObs is one observed read: the reader saw the version of Object,
// an object of fragment Frag, installed by FromTxn at stream position
// Pos. A zero FromTxn denotes the initial (loaded) version.
type ReadObs struct {
	Object  fragments.ObjectID
	Frag    fragments.FragmentID
	FromTxn txn.ID
	Pos     txn.FragPos
}

// TxnRecord is the audit record of one committed transaction.
type TxnRecord struct {
	ID txn.ID
	// Type is the fragment whose agent initiated the transaction — the
	// paper's tp(T). Read-only transactions carry the type of their
	// initiating agent too (or empty if initiated by an outside reader).
	Type fragments.FragmentID
	// UpdateFragment is the fragment the transaction updated (empty for
	// read-only transactions). By the initiation requirement it equals
	// Type for update transactions.
	UpdateFragment fragments.FragmentID
	// Pos is the transaction's position in its fragment's update stream
	// (meaningful only when UpdateFragment is nonempty).
	Pos txn.FragPos
	// Writes is the set of objects written.
	Writes []fragments.ObjectID
	// Reads is the sequence of observed reads.
	Reads []ReadObs
	// ReadOnly reports whether the transaction wrote nothing.
	ReadOnly bool
	// Node is the home node where the transaction executed.
	Node netsim.NodeID
	// Commit is the commit virtual time at the home node.
	Commit simtime.Time
}

// Recorder accumulates TxnRecords from all nodes of a run. It is safe
// for concurrent use.
//
// A nil *Recorder is valid and inert, like a nil trace.Recorder or
// metrics.Registry: Record discards, the accessors report an empty
// history and every check passes vacuously. An engine that is one
// process of a deployment runs with a nil recorder — it sees only its
// own commits, so no audit could be run on what it would keep.
type Recorder struct {
	mu   sync.Mutex
	cat  *fragments.Catalog
	recs []TxnRecord
}

// NewRecorder creates a recorder over the fragment catalog.
func NewRecorder(cat *fragments.Catalog) *Recorder {
	return &Recorder{cat: cat}
}

// Record appends a committed transaction's audit record.
func (r *Recorder) Record(rec TxnRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
}

// Transactions returns a copy of all records, in recording order.
func (r *Recorder) Transactions() []TxnRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TxnRecord, len(r.recs))
	copy(out, r.recs)
	return out
}

// Len reports the number of recorded transactions.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Options configures graph construction.
type Options struct {
	// IncludeReadOnly includes read-only transactions as graph vertices.
	// Section 4.2 notes read-only transactions violating the read-access
	// restrictions "can be allowed" because any resulting anomaly shows
	// only in their output; excluding them checks serializability of the
	// database state itself.
	IncludeReadOnly bool
}

// writerOf locates, per object, the ordered version chain.
type versionChain struct {
	// writers sorted by Pos.
	writers []writerAt
}

type writerAt struct {
	id  txn.ID
	pos txn.FragPos
}

// chains builds the per-object version chains from the records.
func chains(recs []TxnRecord) map[fragments.ObjectID]*versionChain {
	out := make(map[fragments.ObjectID]*versionChain)
	for _, rec := range recs {
		for _, o := range rec.Writes {
			c, ok := out[o]
			if !ok {
				c = &versionChain{}
				out[o] = c
			}
			c.writers = append(c.writers, writerAt{id: rec.ID, pos: rec.Pos})
		}
	}
	for _, c := range out {
		sort.Slice(c.writers, func(i, j int) bool { return c.writers[i].pos.Less(c.writers[j].pos) })
	}
	return out
}

// GlobalGraph builds the global serialization graph (Definition 8.2)
// from the recorded history.
func (r *Recorder) GlobalGraph(opts Options) *Graph {
	recs := r.Transactions()
	g := NewGraph()
	included := make(map[txn.ID]bool, len(recs))
	for _, rec := range recs {
		if rec.ReadOnly && !opts.IncludeReadOnly {
			continue
		}
		included[rec.ID] = true
		g.AddVertex(rec.ID)
	}
	ch := chains(recs)

	// WW edges: consecutive writers of each object.
	for _, c := range ch {
		for i := 0; i+1 < len(c.writers); i++ {
			a, b := c.writers[i].id, c.writers[i+1].id
			if a != b && included[a] && included[b] {
				g.AddEdge(a, b)
			}
		}
	}
	// WR and RW edges from observed reads.
	for _, rec := range recs {
		if !included[rec.ID] {
			continue
		}
		for _, rd := range rec.Reads {
			if !rd.FromTxn.IsZero() && rd.FromTxn != rec.ID && included[rd.FromTxn] {
				g.AddEdge(rd.FromTxn, rec.ID) // WR: writer before reader
			}
			// RW: reader before the next writer of the object.
			c, ok := ch[rd.Object]
			if !ok {
				continue
			}
			i := sort.Search(len(c.writers), func(i int) bool {
				return rd.Pos.Less(c.writers[i].pos)
			})
			if i < len(c.writers) {
				next := c.writers[i].id
				if next != rec.ID && included[next] {
					g.AddEdge(rec.ID, next)
				}
			}
		}
	}
	return g
}

// FragmentGraph builds the serialization graph of U(Fi) — Property 1's
// subject: vertices are the transactions updating fragment f, and edges
// come only from conflicts on f's own objects.
func (r *Recorder) FragmentGraph(f fragments.FragmentID) *Graph {
	recs := r.Transactions()
	g := NewGraph()
	inU := make(map[txn.ID]bool)
	var sub []TxnRecord
	for _, rec := range recs {
		if rec.UpdateFragment == f {
			inU[rec.ID] = true
			g.AddVertex(rec.ID)
			sub = append(sub, rec)
		}
	}
	// Version chains of f's objects: by the initiation requirement U(f)
	// writes exactly those.
	ch := make(map[fragments.ObjectID]*versionChain)
	for _, rec := range sub {
		for _, o := range rec.Writes {
			c, ok := ch[o]
			if !ok {
				c = &versionChain{}
				ch[o] = c
			}
			c.writers = append(c.writers, writerAt{id: rec.ID, pos: rec.Pos})
		}
	}
	for _, c := range ch {
		sort.Slice(c.writers, func(i, j int) bool { return c.writers[i].pos.Less(c.writers[j].pos) })
		for i := 0; i+1 < len(c.writers); i++ {
			if c.writers[i].id != c.writers[i+1].id {
				g.AddEdge(c.writers[i].id, c.writers[i+1].id)
			}
		}
	}
	for _, rec := range sub {
		for _, rd := range rec.Reads {
			if rd.Frag != f {
				continue
			}
			if !rd.FromTxn.IsZero() && rd.FromTxn != rec.ID && inU[rd.FromTxn] {
				g.AddEdge(rd.FromTxn, rec.ID)
			}
			c, ok := ch[rd.Object]
			if !ok {
				continue
			}
			i := sort.Search(len(c.writers), func(i int) bool {
				return rd.Pos.Less(c.writers[i].pos)
			})
			if i < len(c.writers) && c.writers[i].id != rec.ID {
				g.AddEdge(rec.ID, c.writers[i].id)
			}
		}
	}
	return g
}

// PartialEffect describes a Property 2 violation: Reader observed some
// but not all of Writer's writes.
type PartialEffect struct {
	Reader, Writer txn.ID
	// SawObject was read at Writer's version (or newer); MissedObject
	// was read at an older version although Writer wrote it.
	SawObject, MissedObject fragments.ObjectID
}

// String formats the violation.
func (p PartialEffect) String() string {
	return fmt.Sprintf("partial effect: %v saw %v's write of %s but an older version of %s",
		p.Reader, p.Writer, p.SawObject, p.MissedObject)
}

// PartialEffects scans for Property 2 violations.
func (r *Recorder) PartialEffects() []PartialEffect {
	recs := r.Transactions()
	byID := make(map[txn.ID]*TxnRecord, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
	}
	var out []PartialEffect
	for _, rec := range recs {
		// Group this reader's reads by object.
		readPos := make(map[fragments.ObjectID]txn.FragPos, len(rec.Reads))
		readFrom := make(map[fragments.ObjectID]txn.ID, len(rec.Reads))
		for _, rd := range rec.Reads {
			readPos[rd.Object] = rd.Pos
			readFrom[rd.Object] = rd.FromTxn
		}
		// For every writer the reader read from, every other object that
		// writer wrote and the reader also read must be at least as new.
		checked := make(map[txn.ID]bool)
		for _, rd := range rec.Reads {
			w := rd.FromTxn
			if w.IsZero() || w == rec.ID || checked[w] {
				continue
			}
			checked[w] = true
			wrec, ok := byID[w]
			if !ok {
				continue
			}
			for _, o := range wrec.Writes {
				p, readIt := readPos[o]
				if !readIt || o == rd.Object {
					continue
				}
				if p.Less(wrec.Pos) {
					out = append(out, PartialEffect{
						Reader: rec.ID, Writer: w,
						SawObject: rd.Object, MissedObject: o,
					})
				}
			}
		}
	}
	return out
}

// CheckGlobal returns nil if the history is globally serializable.
func (r *Recorder) CheckGlobal(opts Options) error {
	if cyc := r.GlobalGraph(opts).FindCycle(); cyc != nil {
		return fmt.Errorf("history: global serialization graph has cycle %v", cyc)
	}
	return nil
}

// CheckFragmentwise returns nil if the history is fragmentwise
// serializable: Property 1 holds for every fragment and Property 2
// has no violations.
func (r *Recorder) CheckFragmentwise() error {
	if r == nil {
		return nil
	}
	for _, f := range r.cat.Fragments() {
		if cyc := r.FragmentGraph(f).FindCycle(); cyc != nil {
			return fmt.Errorf("history: U(%s) serialization graph has cycle %v (Property 1 violated)", f, cyc)
		}
	}
	if pes := r.PartialEffects(); len(pes) > 0 {
		return fmt.Errorf("history: %d partial-effect violations, first: %v (Property 2 violated)", len(pes), pes[0])
	}
	return nil
}

// ObservedRAG derives the read-access graph actually exercised by the
// history: an edge (tp(T), F) for every read by T of an object in
// fragment F != tp(T).
func (r *Recorder) ObservedRAG() *fragments.ReadAccessGraph {
	if r == nil {
		return fragments.NewReadAccessGraph(fragments.NewCatalog())
	}
	g := fragments.NewReadAccessGraph(r.cat)
	for _, rec := range r.Transactions() {
		if rec.Type == "" {
			continue
		}
		for _, rd := range rec.Reads {
			g.AddEdge(rec.Type, rd.Frag)
		}
	}
	return g
}
