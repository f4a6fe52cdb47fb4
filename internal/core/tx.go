package core

import (
	"errors"
	"fmt"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// TxnSpec describes a transaction to submit.
type TxnSpec struct {
	// Agent is the initiating agent. Update transactions require the
	// agent to hold Fragment's token with this node as its home.
	Agent fragments.AgentID
	// Fragment is the fragment this transaction updates; empty means
	// read-only (initiable by any agent, per Section 2.2).
	Fragment fragments.FragmentID
	// Label tags the transaction for results and debugging.
	Label string
	// Program is the transaction body. It runs on the node's event loop
	// and interacts with the database only through the Tx handle. A
	// non-nil return aborts the transaction.
	//
	// A program may run several times. An operation that must wait (a
	// queued lock, a remote read lock, the simulator's per-operation
	// latency, a Think) does not block: it and every later operation of
	// that run return an error, and that run's return value is ignored.
	// Once the answer arrives the program runs again from the start,
	// its earlier operations answered from a log. So a program must be
	// a deterministic function of what its operations return — the
	// same operations in the same order, never in map order — and its
	// side effects belong in the completion callback.
	Program func(tx *Tx) error
	// Timeout overrides the cluster's TxnTimeout for this transaction.
	Timeout simtime.Duration
	// Origin, when OriginSet is true, records the node where the
	// operation behind this transaction entered the system — a client
	// request forwarded to the agent's home executes there but
	// originated here. It only affects the labeled registry's
	// per-(fragment, origin) accounting, the access matrix adaptive
	// placement consumes; execution is unchanged. OriginSet
	// distinguishes an explicit origin of node 0 from the default (the
	// executing node).
	Origin    netsim.NodeID
	OriginSet bool
}

// TxnResult reports a transaction's outcome to its completion callback.
type TxnResult struct {
	ID        txn.ID
	Label     string
	Committed bool
	// Err is nil on commit; on abort it carries the cause (one of the
	// package sentinels, possibly wrapped, or the program's own error).
	Err error
	// Start and End are the submission and completion virtual times.
	Start, End simtime.Time
}

// Tx is a transaction's handle to the database. It is used only from
// within the transaction's Program.
type Tx activeTxn

type reqKind uint8

const (
	reqRead reqKind = iota
	reqWrite
	reqThink
)

// request is one operation of a program, as the engine takes and
// answers it.
type request struct {
	kind  reqKind
	obj   fragments.ObjectID
	val   any
	err   error
	think simtime.Duration
	// frag is obj's fragment, resolved when the engine takes the
	// operation.
	frag fragments.FragmentID
}

// entry is an answered operation in the transaction's log: what a
// repeated run matches and is answered with. failed marks the operation
// that poisoned the transaction; its answer is t.poisoned().
type entry struct {
	kind   reqKind
	failed bool
	obj    fragments.ObjectID
	val    any
}

// errWaiting answers an operation that could not be answered yet: the
// run is abandoned and the program runs again when the answer arrives.
var errWaiting = errors.New("core: operation waiting; the program will run again")

// activeTxn is the engine-side state of a running transaction.
type activeTxn struct {
	id   txn.ID
	spec TxnSpec
	node *Node

	// log holds the answered operations in program order; cursor is the
	// current run's position in it. log starts in logBuf, which holds a
	// read-modify-write without a further allocation.
	log    []entry
	logBuf [2]entry
	cursor int32

	// waiting marks a run abandoned on an operation that is not
	// answered yet. finished is set once the transaction is finalized;
	// the program never runs again. multi marks a multi-fragment
	// transaction (SubmitMulti); waitingMulti is true while its
	// two-phase commit is in flight.
	waiting, finished, multi, waitingMulti bool

	// writes is the workspace: the run's buffered writes, one per
	// object in first-write order, which the run's reads see. Each run
	// rebuilds it, and the commit hands it over as the
	// quasi-transaction's write set.
	writes []txn.WriteOp
	// reads records what the reads observed, for the history recorder;
	// kept only on a node that has one.
	reads []history.ReadObs

	start simtime.Time
	done  func(TxnResult)

	// rare holds what a transaction needs only off the common path; nil
	// until then.
	rare *txnRare
}

// txnRare is the state of a transaction that waits, is poisoned, runs
// a majority round or buffers many writes. Keeping it out of activeTxn
// keeps the transaction that commits in the pass that starts it small.
type txnRare struct {
	// timeoutEv is armed only once the transaction outlives the pass
	// that started it.
	timeoutEv *simtime.Event
	// parked is the request waiting on a local lock grant.
	parked *request
	// pendingRemote is the object of an outstanding remote lock request
	// (at most one at a time; the run waits on it).
	pendingRemote *request
	// remoteLocked tracks nodes holding remote read locks for us; made
	// on the first remote grant.
	remoteLocked map[netsim.NodeID]bool
	// maj is the majority-commit round in flight, nil outside one.
	maj *majorityRound
	// poisoned dooms the transaction: every later operation answers it.
	poisoned error
	// writeIdx indexes writes by object once they outgrow linearWrites,
	// so a large write set is not searched linearly.
	writeIdx map[fragments.ObjectID]int
}

// rareState returns the transaction's txnRare, making it on first use.
func (t *activeTxn) rareState() *txnRare {
	if t.rare == nil {
		t.rare = new(txnRare)
	}
	return t.rare
}

// poisoned is the error that doomed the transaction, if any.
func (t *activeTxn) poisoned() error {
	if t.rare == nil {
		return nil
	}
	return t.rare.poisoned
}

// maj is the transaction's majority round in flight, if any.
func (t *activeTxn) maj() *majorityRound {
	if t.rare == nil {
		return nil
	}
	return t.rare.maj
}

// linearWrites is the largest workspace searched without an index.
const linearWrites = 8

// Read returns the current value of object o. Within an update
// transaction it sees the transaction's own uncommitted writes. The
// boolean-style "known" distinction is folded into the value: an object
// never written or loaded reads as nil.
func (tx *Tx) Read(o fragments.ObjectID) (any, error) {
	r := (*activeTxn)(tx).op(request{kind: reqRead, obj: o})
	return r.val, r.err
}

// ReadInt is a convenience wrapper reading an int64 value (the common
// case in the banking and airline examples). Unset objects read as 0.
func (tx *Tx) ReadInt(o fragments.ObjectID) (int64, error) {
	v, err := tx.Read(o)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case nil:
		return 0, nil
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	default:
		return 0, fmt.Errorf("core: object %q holds %T, not an integer", o, v)
	}
}

// Write records a new value for object o, visible to subsequent reads
// in this transaction and installed atomically at commit.
func (tx *Tx) Write(o fragments.ObjectID, v any) error {
	return (*activeTxn)(tx).op(request{kind: reqWrite, obj: o, val: v}).err
}

// Think consumes d of virtual time inside the transaction, modelling
// computation or user interaction between database operations.
func (tx *Tx) Think(d simtime.Duration) {
	(*activeTxn)(tx).op(request{kind: reqThink, think: d})
}

// ID returns the transaction's identity.
func (tx *Tx) ID() txn.ID { return tx.id }

// Node returns the home node's id.
func (tx *Tx) Node() netsim.NodeID { return tx.node.id }

// op answers one operation of the current run: from the log while the
// run repeats it, else from the engine. An operation that differs from
// the log at the cursor drops the log's tail; the locks its entries
// took stay held until the end.
func (t *activeTxn) op(req request) request {
	switch {
	case t.waiting:
		return t.wait()
	case int(t.cursor) == len(t.log) && t.poisoned() != nil:
		return request{err: t.poisoned()}
	}
	if req.kind == reqRead {
		if i := t.written(req.obj); i >= 0 {
			return request{val: t.writes[i].Value} // read-your-own-writes
		}
	}
	if int(t.cursor) < len(t.log) {
		if e := t.log[t.cursor]; e.kind == req.kind && e.obj == req.obj {
			t.cursor++
			if e.failed {
				return request{err: t.poisoned()}
			}
			if e.kind == reqWrite {
				t.buffer(req.obj, req.val)
			}
			return request{val: e.val}
		}
		t.log = t.log[:t.cursor]
	}
	return t.node.exec(t, req)
}

// logEntry appends the answered operation r to the log.
func (t *activeTxn) logEntry(r request) {
	t.log = append(t.log, entry{kind: r.kind, failed: r.err != nil, obj: r.obj, val: r.val})
}

// answer logs an operation answered during the run and returns it.
func (t *activeTxn) answer(r request) request {
	t.logEntry(r)
	t.cursor++
	if r.kind == reqWrite && r.err == nil {
		t.buffer(r.obj, r.val)
	}
	return r
}

// wait abandons the run on an operation the engine answers later.
func (t *activeTxn) wait() request {
	t.waiting = true
	return request{err: errWaiting}
}

// written returns o's index in the workspace, or -1.
func (t *activeTxn) written(o fragments.ObjectID) int {
	if t.rare != nil && t.rare.writeIdx != nil {
		if i, ok := t.rare.writeIdx[o]; ok {
			return i
		}
		return -1
	}
	for i := range t.writes {
		if t.writes[i].Object == o {
			return i
		}
	}
	return -1
}

// buffer records a write in the workspace.
func (t *activeTxn) buffer(o fragments.ObjectID, v any) {
	if i := t.written(o); i >= 0 {
		t.writes[i].Value = v
		return
	}
	t.writes = append(t.writes, txn.WriteOp{Object: o, Value: v})
	switch {
	case t.rare != nil && t.rare.writeIdx != nil:
		t.rare.writeIdx[o] = len(t.writes) - 1
	case len(t.writes) > linearWrites:
		idx := make(map[fragments.ObjectID]int, 2*len(t.writes))
		for i, w := range t.writes {
			idx[w.Object] = i
		}
		t.rareState().writeIdx = idx
	}
}
