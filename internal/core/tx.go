package core

import (
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
	// Program is the transaction body. It runs on its own goroutine and
	// interacts with the database only through the Tx handle. A non-nil
	// return aborts the transaction.
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
	reqDone
)

type request struct {
	kind  reqKind
	obj   fragments.ObjectID
	val   any
	think simtime.Duration
	err   error // for reqDone
}

type response struct {
	val   any
	known bool
	err   error
}

// activeTxn is the engine-side state of a running transaction.
type activeTxn struct {
	id   txn.ID
	spec TxnSpec
	node *Node

	reqCh  chan request
	respCh chan response

	// workspace: writes buffered until commit; reads see own writes.
	// writeVals is made on the first write.
	writeVals  map[fragments.ObjectID]any
	writeOrder []fragments.ObjectID
	reads      []history.ReadObs

	// remoteLocked tracks nodes holding remote read locks for us; made
	// on the first remote grant.
	remoteLocked map[netsim.NodeID]bool
	// pendingRemote is the object of an outstanding remote lock request
	// (at most one at a time; the program is blocked on it).
	pendingRemote *request

	// parked is the request blocked on a local lock grant.
	parked *request

	poisoned      error
	finished      bool
	finalizedFlag bool

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
	resp := tx.t.roundTrip(request{kind: reqRead, obj: o})
	return resp.val, resp.err
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
	resp := tx.t.roundTrip(request{kind: reqWrite, obj: o, val: v})
	return resp.err
}

// Think consumes d of virtual time inside the transaction, modelling
// computation or user interaction between database operations.
func (tx *Tx) Think(d simtime.Duration) {
	tx.t.roundTrip(request{kind: reqThink, think: d})
}

// ID returns the transaction's identity.
func (tx *Tx) ID() txn.ID { return tx.t.id }

// Node returns the home node's id.
func (tx *Tx) Node() netsim.NodeID { return tx.t.node.id }

// roundTrip sends one request to the engine and waits for the response.
func (t *activeTxn) roundTrip(req request) response {
	t.reqCh <- req
	return <-t.respCh
}
