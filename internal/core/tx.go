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
type Tx struct {
	t *activeTxn
}

type reqKind int

const (
	reqRead reqKind = iota
	reqWrite
	reqThink
)

// request is one operation of a program and, once answered, its entry
// in the transaction's log.
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

// errWaiting answers an operation that could not be answered yet: the
// run is abandoned and the program runs again when the answer arrives.
var errWaiting = errors.New("core: operation waiting; the program will run again")

// activeTxn is the engine-side state of a running transaction.
type activeTxn struct {
	id   txn.ID
	spec TxnSpec
	node *Node
	tx   Tx

	// log holds the answered operations in program order; cursor is the
	// current run's position in it. waiting marks a run abandoned on an
	// operation that is not answered yet.
	log     []request
	cursor  int
	waiting bool

	// workspace: writes buffered until commit; reads see own writes.
	// Each run rebuilds it; writeVals is made on the first write.
	writeVals  map[fragments.ObjectID]any
	writeOrder []fragments.ObjectID
	reads      []history.ReadObs

	// remoteLocked tracks nodes holding remote read locks for us; made
	// on the first remote grant.
	remoteLocked map[netsim.NodeID]bool
	// pendingRemote is the object of an outstanding remote lock request
	// (at most one at a time; the run waits on it).
	pendingRemote *request

	// parked is the request waiting on a local lock grant.
	parked *request

	poisoned error
	// finished is set once the transaction is finalized; the program
	// never runs again.
	finished bool

	// multi marks a multi-fragment transaction (SubmitMulti);
	// waitingMulti is true while its two-phase commit is in flight.
	multi        bool
	waitingMulti bool

	start     simtime.Time
	timeoutEv *simtime.Event
	done      func(TxnResult)

	// majority-commit state.
	waitingMajority bool
	acks            map[netsim.NodeID]bool
	pendingQuasi    txn.Quasi
	majorityEv      *simtime.Event
}

// Read returns the current value of object o. Within an update
// transaction it sees the transaction's own uncommitted writes. The
// boolean-style "known" distinction is folded into the value: an object
// never written or loaded reads as nil.
func (tx *Tx) Read(o fragments.ObjectID) (any, error) {
	r := tx.t.op(request{kind: reqRead, obj: o})
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
	return tx.t.op(request{kind: reqWrite, obj: o, val: v}).err
}

// Think consumes d of virtual time inside the transaction, modelling
// computation or user interaction between database operations.
func (tx *Tx) Think(d simtime.Duration) {
	tx.t.op(request{kind: reqThink, think: d})
}

// ID returns the transaction's identity.
func (tx *Tx) ID() txn.ID { return tx.t.id }

// Node returns the home node's id.
func (tx *Tx) Node() netsim.NodeID { return tx.t.node.id }

// op answers one operation of the current run: from the log while the
// run repeats it, else from the engine. An operation that differs from
// the log at the cursor drops the log's tail; the locks its entries
// took stay held until the end.
func (t *activeTxn) op(req request) request {
	switch {
	case t.waiting:
		return t.wait()
	case t.cursor == len(t.log) && t.poisoned != nil:
		return request{err: t.poisoned}
	}
	if req.kind == reqRead {
		if v, ok := t.writeVals[req.obj]; ok {
			return request{val: v} // read-your-own-writes
		}
	}
	if t.cursor < len(t.log) {
		if e := t.log[t.cursor]; e.kind == req.kind && e.obj == req.obj {
			t.cursor++
			if e.kind == reqWrite {
				t.buffer(req.obj, req.val)
			}
			return e
		}
		t.log = t.log[:t.cursor]
	}
	return t.node.exec(t, req)
}

// answer logs an operation answered during the run and returns it.
func (t *activeTxn) answer(e request) request {
	t.log = append(t.log, e)
	t.cursor++
	if e.kind == reqWrite && e.err == nil {
		t.buffer(e.obj, e.val)
	}
	return e
}

// wait abandons the run on an operation the engine answers later.
func (t *activeTxn) wait() request {
	t.waiting = true
	return request{err: errWaiting}
}

// buffer records a write in the workspace.
func (t *activeTxn) buffer(o fragments.ObjectID, v any) {
	if _, seen := t.writeVals[o]; !seen {
		t.writeOrder = append(t.writeOrder, o)
	}
	if t.writeVals == nil {
		t.writeVals = make(map[fragments.ObjectID]any)
	}
	t.writeVals[o] = v
}
