// Package fragdb is a Go implementation of the fragments-and-agents
// approach to highly available distributed databases from:
//
//	Hector Garcia-Molina and Boris Kogan,
//	"Achieving High Availability in Distributed Databases",
//	Princeton CS-TR-043-86 (June 1986) / ICDE 1987.
//
// The database is divided into disjoint fragments; each fragment has
// exactly one token whose owner — a user or a node, the fragment's
// agent — is the only party allowed to initiate update transactions on
// it. Updates propagate to all replicas as quasi-transactions over a
// reliable FIFO broadcast. A family of control options trades
// availability against correctness:
//
//   - ReadLocks (paper §4.1): reads outside the updated fragment take
//     remote locks at the owning agent's home node. Globally
//     serializable; lowest availability.
//   - AcyclicReads (§4.2): the declared read-access graph must be
//     elementarily acyclic; reads are then local and lock-free, and the
//     paper's theorem guarantees global serializability.
//   - UnrestrictedReads (§4.3): no read restrictions; the system
//     guarantees fragmentwise serializability and mutual consistency.
//
// Agents may move between nodes using the §4.4 protocols (majority
// commit, move-with-data, move-with-sequence-number, or no preparation
// with after-the-fact recovery), re-exported here from package
// agentmove.
//
// Everything runs on a deterministic discrete-event simulation of a
// partitionable point-to-point network, so behaviour under partitions
// is exactly reproducible. The serializability checkers (global and
// fragmentwise serialization graphs, per the paper's Definitions
// 8.2/8.3) are part of the library: any run can be audited.
//
// Quick start:
//
//	cl := fragdb.NewCluster(fragdb.Config{N: 3, Option: fragdb.UnrestrictedReads, Seed: 1})
//	cl.Catalog().AddFragment("F", "x")
//	cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
//	cl.Start()
//	cl.Load("x", int64(0))
//	cl.Node(0).Submit(fragdb.TxnSpec{
//	    Agent: fragdb.NodeAgent(0), Fragment: "F",
//	    Program: func(tx *fragdb.Tx) error {
//	        v, err := tx.ReadInt("x")
//	        if err != nil {
//	            return err
//	        }
//	        return tx.Write("x", v+1)
//	    },
//	}, nil)
//	cl.Settle(time.Minute)
//
// See examples/ for complete programs and cmd/haexp for the paper's
// experiments.
package fragdb

import (
	"fragdb/internal/agentmove"
	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// Core engine types, re-exported.
type (
	// Cluster is a simulated fragments-and-agents distributed database.
	Cluster = core.Cluster
	// Config configures a Cluster.
	Config = core.Config
	// ControlOption selects the read-control strategy of paper §4.
	ControlOption = core.ControlOption
	// TxnSpec describes a transaction to submit.
	TxnSpec = core.TxnSpec
	// TxnResult reports a transaction's outcome.
	TxnResult = core.TxnResult
	// Tx is a transaction's handle to the database.
	Tx = core.Tx
	// Node is one site's database engine.
	Node = core.Node
	// RecoveredUpdate describes a missing transaction recovered by the
	// no-preparation movement protocol.
	RecoveredUpdate = core.RecoveredUpdate
)

// Identifier types, re-exported.
type (
	// NodeID identifies a node (site).
	NodeID = netsim.NodeID
	// FragmentID names a fragment.
	FragmentID = fragments.FragmentID
	// ObjectID names a data object.
	ObjectID = fragments.ObjectID
	// AgentID identifies an agent (a token owner).
	AgentID = fragments.AgentID
	// Duration is a span of virtual time.
	Duration = simtime.Duration
	// Time is a point in virtual time.
	Time = simtime.Time
)

// The control options of paper §4.
const (
	// ReadLocks is §4.1: fixed agents, remote read locks.
	ReadLocks = core.ReadLocks
	// AcyclicReads is §4.2: fixed agents, elementarily acyclic declared
	// read-access graph.
	AcyclicReads = core.AcyclicReads
	// UnrestrictedReads is §4.3: fixed agents, no read restrictions.
	UnrestrictedReads = core.UnrestrictedReads
)

// Engine errors, re-exported.
var (
	ErrNotAgent       = core.ErrNotAgent
	ErrNotHome        = core.ErrNotHome
	ErrReadOnlyTxn    = core.ErrReadOnlyTxn
	ErrUndeclaredRead = core.ErrUndeclaredRead
	ErrTimeout        = core.ErrTimeout
	ErrDeadlock       = core.ErrDeadlock
	ErrWounded        = core.ErrWounded
	ErrNoMajority     = core.ErrNoMajority
	ErrUnknownObject  = core.ErrUnknownObject
	ErrAgentMoving    = core.ErrAgentMoving
	ErrRemoteDenied   = core.ErrRemoteDenied
	ErrMultiRejected  = core.ErrMultiRejected
	ErrMoveTimeout    = agentmove.ErrMoveTimeout
	ErrSameNode       = agentmove.ErrSameNode
	ErrUnknownAgent   = agentmove.ErrUnknownAgent
)

// NewCluster creates an unstarted cluster. Declare fragments, tokens,
// read-access edges, and initial data, then call Start.
func NewCluster(cfg Config) *Cluster { return core.NewCluster(cfg) }

// NodeAgent returns the AgentID conventionally used for a node itself
// acting as an agent.
func NodeAgent(n NodeID) AgentID { return fragments.NodeAgent(n) }

// MoveResult reports an agent move's outcome.
type MoveResult = agentmove.Result

// MoveWithData relocates an agent carrying its fragments' contents
// out-of-band (paper §4.4.2A).
func MoveWithData(cl *Cluster, agent AgentID, to NodeID, transport Duration, done func(MoveResult)) {
	agentmove.MoveWithData(cl, agent, to, transport, done)
}

// MoveWithSeq relocates an agent carrying only its last sequence
// number; the new home waits until the stream catches up (§4.4.2B).
func MoveWithSeq(cl *Cluster, agent AgentID, to NodeID, maxWait Duration, done func(MoveResult)) {
	agentmove.MoveWithSeq(cl, agent, to, maxWait, done)
}

// MoveNoPrep relocates an agent immediately with no preparation;
// missing transactions are recovered afterwards (§4.4.3).
func MoveNoPrep(cl *Cluster, agent AgentID, to NodeID, done func(MoveResult)) {
	agentmove.MoveNoPrep(cl, agent, to, done)
}

// MoveMajority relocates an agent by reconstructing its fragments'
// streams from a majority of nodes; requires Config.MajorityCommit
// (§4.4.1).
func MoveMajority(cl *Cluster, agent AgentID, to NodeID, maxWait Duration, done func(MoveResult)) {
	agentmove.MoveMajority(cl, agent, to, maxWait, done)
}

// ElectAgent reconstitutes a fragment's token after its owner was lost
// to a failure (§4.4.1's election); requires Config.MajorityCommit.
func ElectAgent(cl *Cluster, f FragmentID, newAgent AgentID, at NodeID, maxWait Duration, done func(MoveResult)) {
	agentmove.ElectAgent(cl, f, newAgent, at, maxWait, done)
}
