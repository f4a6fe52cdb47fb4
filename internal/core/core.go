// Package core implements the fragments-and-agents distributed
// database engine of Garcia-Molina & Kogan: update transactions
// initiated only by a fragment's agent at its home node, propagated to
// all replicas as quasi-transactions over reliable FIFO broadcast, with
// the family of control options of Section 4:
//
//   - ReadLocks (4.1): fixed agents; reads outside the updated fragment
//     take remote locks at the owning agent's home node. Globally
//     serializable, lowest availability.
//   - AcyclicReads (4.2): fixed agents; the declared read-access graph
//     must be elementarily acyclic; reads are then local and lock-free
//     across fragments. Globally serializable by the paper's theorem.
//   - UnrestrictedReads (4.3): fixed agents; no read restrictions.
//     Fragmentwise serializable and mutually consistent.
//
// Agent movement (Section 4.4) is orchestrated by package agentmove on
// top of the hooks this package provides (fragment stream positions,
// epochs, the M0 recovery protocol, majority commit).
package core

import (
	"errors"
	"fmt"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// ControlOption selects the read-control strategy of Section 4.
type ControlOption int

// The three fixed-agent control options.
const (
	// ReadLocks is the Section 4.1 option: remote read locks.
	ReadLocks ControlOption = iota
	// AcyclicReads is the Section 4.2 option: reads restricted to a
	// declared, elementarily acyclic read-access graph.
	AcyclicReads
	// UnrestrictedReads is the Section 4.3 option: no read
	// restrictions; fragmentwise serializability.
	UnrestrictedReads
)

// String names the option.
func (o ControlOption) String() string {
	switch o {
	case ReadLocks:
		return "read-locks"
	case AcyclicReads:
		return "acyclic-reads"
	case UnrestrictedReads:
		return "unrestricted"
	default:
		return fmt.Sprintf("ControlOption(%d)", int(o))
	}
}

// Sentinel errors surfaced in TxnResult.Err and by Tx operations.
var (
	// ErrNotAgent: the submitting agent does not hold the fragment's token.
	ErrNotAgent = errors.New("core: submitter is not the fragment's agent")
	// ErrNotHome: the transaction was submitted at a node other than the
	// agent's home node.
	ErrNotHome = errors.New("core: node is not the agent's home node")
	// ErrReadOnlyTxn: a write was attempted in a read-only transaction.
	ErrReadOnlyTxn = errors.New("core: write in read-only transaction")
	// ErrUndeclaredRead: under AcyclicReads, an update transaction read a
	// fragment with no declared read-access edge.
	ErrUndeclaredRead = errors.New("core: read of undeclared fragment under acyclic-reads option")
	// ErrTimeout: the transaction exceeded its timeout while blocked.
	ErrTimeout = errors.New("core: transaction timed out")
	// ErrDeadlock: the transaction was chosen as a deadlock victim.
	ErrDeadlock = errors.New("core: transaction aborted by deadlock detection")
	// ErrWounded: the transaction was aborted to let a quasi-transaction
	// or a timed-out peer proceed.
	ErrWounded = errors.New("core: transaction wounded by remote update")
	// ErrNoMajority: majority commit could not assemble a majority.
	ErrNoMajority = errors.New("core: no majority of nodes reachable")
	// ErrUnknownObject: read of an object in no cataloged fragment.
	ErrUnknownObject = errors.New("core: object not in any fragment")
	// ErrAgentMoving: the fragment's agent is mid-move and not accepting
	// update transactions.
	ErrAgentMoving = errors.New("core: fragment agent is moving")
	// ErrRemoteDenied: a remote read-lock request was denied by the
	// serving node's deadlock detection.
	ErrRemoteDenied = errors.New("core: remote read lock denied")
)

// Config configures a Cluster.
type Config struct {
	// N is the number of nodes. Required.
	N int
	// Option selects the control strategy. Default ReadLocks (zero
	// value); most callers want UnrestrictedReads.
	Option ControlOption
	// Seed seeds the deterministic scheduler.
	Seed int64
	// GossipInterval is the broadcast anti-entropy period. Default 50ms.
	GossipInterval simtime.Duration
	// TxnTimeout aborts transactions blocked longer than this. Default 5s.
	TxnTimeout simtime.Duration
	// MajorityCommit enables the Section 4.4.1 commit protocol: an
	// update commits only after a majority of nodes acknowledge its
	// quasi-transaction.
	MajorityCommit bool
	// RemoteLockLease bounds how long a remote read lock survives
	// without release (leaked by a partitioned requester). Default 30s.
	RemoteLockLease simtime.Duration
	// MultiLease bounds how long a prepared multi-fragment part holds
	// its locks awaiting the coordinator's decision (presumed abort on
	// expiry). Default 60s — much longer than typical coordinator
	// timeouts, to keep the 2PC in-doubt window from causing false
	// aborts.
	MultiLease simtime.Duration
	// LossProb makes every link drop messages independently with this
	// probability; the broadcast layer's anti-entropy recovers. Direct
	// request/reply protocols (remote locks, 2PC, majority acks) see
	// real losses and rely on their timeouts, as they would on a real
	// 1986 WAN.
	LossProb float64
	// Compaction enables broadcast log truncation below the all-acked
	// watermark, with snapshot catch-up for nodes that fall behind the
	// horizon. Keeps broadcast memory bounded over long runs.
	Compaction bool
	// CompactRetain and PeerLiveRounds tune compaction (zero: broadcast
	// package defaults).
	CompactRetain  int
	PeerLiveRounds int
	// TraceCap, when positive, enables the per-node flight recorder with
	// a ring buffer of that many events per node (see internal/trace).
	// Zero disables tracing entirely: no events are constructed and the
	// hot paths pay only a nil check.
	TraceCap int
	// Transport, when non-nil, replaces the built-in simulated network:
	// messages travel over it (e.g. rtnet.TCP in a real deployment)
	// instead of netsim. Its N must equal Config.N. LossProb is then
	// ignored and Net() returns nil —
	// faults come from the real network or the transport's own levers.
	Transport netsim.Transport
	// SingleNode builds only LocalNode's engine in this process; the
	// other cluster members run in their own processes, reached through
	// Transport (which is then required). Driver helpers that inspect
	// every node (Converged, CheckMutualConsistency, Load, ...) cover
	// only the local node, and Node(i) is nil for remote ids.
	SingleNode bool
	// LocalNode is this process's node id when SingleNode is set.
	LocalNode netsim.NodeID
}

// simOpLatency is the virtual time each transaction operation (read,
// write) consumes on the simulated network, where it lets local
// transactions interleave with quasi-transaction installation. Over a
// real Transport an operation costs the work it does and no more.
const simOpLatency = time.Millisecond

func (c *Config) fillDefaults() {
	if c.GossipInterval == 0 {
		c.GossipInterval = 50 * time.Millisecond
	}
	if c.TxnTimeout == 0 {
		c.TxnTimeout = 5 * time.Second
	}
	if c.RemoteLockLease == 0 {
		c.RemoteLockLease = 30 * time.Second
	}
	if c.MultiLease == 0 {
		c.MultiLease = 60 * time.Second
	}
}

// RecoveredUpdate describes a missing transaction recovered by the
// no-preparation movement protocol (Section 4.4.3, rule A(2)).
type RecoveredUpdate struct {
	Fragment fragments.FragmentID
	// Original is the missing quasi-transaction as produced at the old
	// home node.
	Original txn.Quasi
	// Kept are the writes that survived (were not overwritten by more
	// recent transactions); Dropped are the rest.
	Kept, Dropped []txn.WriteOp
	// NewID is the identity of the repackaged transaction.
	NewID txn.ID
}

// Cluster is a simulated fragments-and-agents distributed database:
// n fully replicated nodes over a partitionable network.
type Cluster struct {
	cfg   Config
	sched *simtime.Scheduler
	// tr is the transport every protocol message goes through: the
	// simulated network by default, or Config.Transport when injected.
	tr     netsim.Transport
	net    *netsim.Network // nil when a Transport was injected
	cat    *fragments.Catalog
	tokens *fragments.Tokens
	rag    *fragments.ReadAccessGraph
	// rec audits the run; nil (inert) in a SingleNode process.
	rec    *history.Recorder
	stats  *metrics.Counters
	bstats *metrics.Broadcast
	// reg is the labeled per-fragment registry, always built.
	reg   *metrics.Registry
	nodes []*Node

	// tracers holds a flight recorder for each node this process runs,
	// built with the node, when Config.TraceCap is positive; every other
	// entry is nil (a nil Recorder is inert).
	tracers []*trace.Recorder

	// onRecovered, if set, is invoked at a moved agent's new home node
	// whenever a missing transaction is recovered and repackaged. The
	// paper's corrective actions (overdraft fines, cancelled
	// reservations) hang off this hook.
	onRecovered func(RecoveredUpdate)

	// onQuasiApplied, if set, is invoked after a quasi-transaction is
	// installed at a remote node. Applications use it as the paper's
	// update trigger ("after the update is installed in the local copy
	// ... a new transaction is triggered here", Section 2).
	onQuasiApplied func(node netsim.NodeID, q txn.Quasi)

	// fragOptions overrides the control option per transaction type
	// (the fragment whose agent initiates the transaction), enabling the
	// mixed strategies of the paper's Conclusions: "it is possible to
	// combine several of our strategies in a single system ... mutual
	// consistency for some fragments, fragmentwise serializability for a
	// set of other fragments, and conventional serializability within
	// another group."
	fragOptions map[fragments.FragmentID]ControlOption

	// replicas restricts which nodes hold a copy of each fragment
	// (the Conclusions' "databases that are not fully replicated").
	// Fragments absent from the map are fully replicated. Non-replica
	// nodes relay broadcast traffic but do not install the fragment's
	// quasi-transactions; their transactions read the fragment remotely
	// at its agent's home node.
	replicas map[fragments.FragmentID]map[netsim.NodeID]bool

	// commutative marks fragments whose update transactions are
	// write-only and commutative (e.g. the banking ACTIVITY fragments:
	// they only create new entries). Their quasi-transactions apply in
	// any order — per Section 4.4.2A, "copies of the fragment at
	// different nodes will be mutually consistent regardless of the
	// order in which they receive these updates" — so their agents can
	// move between nodes with no preparatory protocol at all.
	commutative map[fragments.FragmentID]bool

	// opLatency is simOpLatency on the simulated network, zero over an
	// injected Transport.
	opLatency simtime.Duration

	started bool
}

// NewCluster creates an unstarted cluster. Declare fragments, tokens,
// read-access edges, and initial data, then call Start.
func NewCluster(cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic("core: Config.N must be positive")
	}
	cfg.fillDefaults()
	cl := &Cluster{
		cfg:         cfg,
		sched:       simtime.NewScheduler(cfg.Seed),
		cat:         fragments.NewCatalog(),
		tokens:      fragments.NewTokens(),
		stats:       &metrics.Counters{},
		bstats:      &metrics.Broadcast{},
		reg:         metrics.NewRegistry(),
		commutative: make(map[fragments.FragmentID]bool),
		fragOptions: make(map[fragments.FragmentID]ControlOption),
		replicas:    make(map[fragments.FragmentID]map[netsim.NodeID]bool),
	}
	if cfg.Transport != nil {
		if cfg.Transport.N() != cfg.N {
			panic(fmt.Sprintf("core: transport has %d nodes, Config.N is %d", cfg.Transport.N(), cfg.N))
		}
		cl.tr = cfg.Transport
	} else {
		if cfg.SingleNode {
			panic("core: SingleNode requires an injected Transport")
		}
		// The fast wire codec makes per-delivery size accounting cheap
		// (analytic for the hot types, memoized rejection for the
		// simulation-internal ones), so every cluster meters wire bytes.
		opts := []netsim.Option{netsim.WithSizeFunc(wire.Size)}
		if cfg.LossProb > 0 {
			opts = append(opts, netsim.WithLoss(cfg.LossProb))
		}
		cl.net = netsim.New(cl.sched, cfg.N, opts...)
		cl.tr = cl.net
		cl.opLatency = simOpLatency
	}
	cl.rag = fragments.NewReadAccessGraph(cl.cat)
	if !cfg.SingleNode {
		// One process of a deployment sees only its own commits: nothing
		// could audit what it would record, so it records nothing.
		cl.rec = history.NewRecorder(cl.cat)
	}
	cl.tracers = make([]*trace.Recorder, cfg.N)
	return cl
}

// Catalog returns the shared fragment catalog (populate before Start).
func (cl *Cluster) Catalog() *fragments.Catalog { return cl.cat }

// Tokens returns the token registry (assign before Start).
func (cl *Cluster) Tokens() *fragments.Tokens { return cl.tokens }

// RAG returns the declared read-access graph.
func (cl *Cluster) RAG() *fragments.ReadAccessGraph { return cl.rag }

// Recorder returns the history recorder auditing this cluster — nil (a
// valid, inert recorder) in a SingleNode process.
func (cl *Cluster) Recorder() *history.Recorder { return cl.rec }

// Stats returns the cluster's metric counters.
func (cl *Cluster) Stats() *metrics.Counters { return cl.stats }

// BroadcastStats returns the cluster-wide broadcast gauges (retained
// log entries, compaction and snapshot-catch-up counters).
func (cl *Cluster) BroadcastStats() *metrics.Broadcast { return cl.bstats }

// Registry returns the labeled per-fragment metrics registry.
func (cl *Cluster) Registry() *metrics.Registry { return cl.reg }

// Trace returns node i's flight recorder — nil (a valid, inert
// recorder) when tracing is disabled, before Start, and for a node this
// process does not run.
func (cl *Cluster) Trace(i netsim.NodeID) *trace.Recorder { return cl.tracers[i] }

// TraceDump renders the trailing tail events of every node's flight
// recorder (all retained events when tail <= 0). Empty when tracing is
// disabled.
func (cl *Cluster) TraceDump(tail int) string { return trace.DumpAll(cl.tracers, tail) }

// Sched returns the virtual-time scheduler driving the cluster.
func (cl *Cluster) Sched() *simtime.Scheduler { return cl.sched }

// Net returns the simulated network (partition control) — nil when the
// cluster runs over an injected Transport.
func (cl *Cluster) Net() *netsim.Network { return cl.net }

// Transport returns the transport carrying the cluster's messages.
func (cl *Cluster) Transport() netsim.Transport { return cl.tr }

// LocalNode returns this process's node engine: the SingleNode-mode
// local node, or node 0 of an all-in-process cluster.
func (cl *Cluster) LocalNode() *Node {
	if cl.cfg.SingleNode {
		return cl.nodes[cl.cfg.LocalNode]
	}
	return cl.nodes[0]
}

// Config returns the cluster's configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Node returns node i's engine (valid after Start).
func (cl *Cluster) Node(i netsim.NodeID) *Node { return cl.nodes[i] }

// DeclareRead adds a read-access edge: transactions of A(from) may read
// fragment to. Required only under the AcyclicReads option, where the
// resulting graph must be elementarily acyclic at Start.
func (cl *Cluster) DeclareRead(from, to fragments.FragmentID) {
	cl.rag.AddEdge(from, to)
}

// OnRecovered registers the corrective-action hook for the
// no-preparation movement protocol.
func (cl *Cluster) OnRecovered(fn func(RecoveredUpdate)) { cl.onRecovered = fn }

// OnQuasiApplied registers an application trigger invoked whenever a
// quasi-transaction is installed at a remote replica.
func (cl *Cluster) OnQuasiApplied(fn func(node netsim.NodeID, q txn.Quasi)) { cl.onQuasiApplied = fn }

// SetFragmentOption overrides the control option for transactions
// initiated by fragment f's agent (Section 4.2's closing remark: a
// subset of transactions with an elementarily acyclic read pattern
// "could be executed without read locks, while the rest would be
// executed with a more restrictive fragment locking policy"). Call
// before Start.
func (cl *Cluster) SetFragmentOption(f fragments.FragmentID, opt ControlOption) {
	cl.fragOptions[f] = opt
}

// optionFor returns the control option governing transactions of the
// given type (empty for read-only transactions, which follow the
// cluster default).
func (cl *Cluster) optionFor(f fragments.FragmentID) ControlOption {
	if f != "" {
		if opt, ok := cl.fragOptions[f]; ok {
			return opt
		}
	}
	return cl.cfg.Option
}

// SetReplicas restricts fragment f to the given replica nodes
// (partial replication). The agent's home node must be a replica.
// Call before Start. Fragments never passed to SetReplicas remain
// fully replicated, the paper's simplifying default.
func (cl *Cluster) SetReplicas(f fragments.FragmentID, nodes ...netsim.NodeID) {
	set := make(map[netsim.NodeID]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	cl.replicas[f] = set
}

// IsReplica reports whether node holds a copy of fragment f.
func (cl *Cluster) IsReplica(f fragments.FragmentID, node netsim.NodeID) bool {
	set, ok := cl.replicas[f]
	if !ok {
		return true // fully replicated
	}
	return set[node]
}

// SetCommutative declares a fragment's update transactions write-only
// and commutative (create-only entries, increments). Its
// quasi-transactions are applied in arrival order with duplicate
// suppression instead of strict sequence order, and its agent may move
// between nodes with a bare Tokens().MoveAgent — no movement protocol
// needed (Section 4.4.2A). The application is responsible for the
// write-only/commutative discipline; transactions that read-modify-
// write shared objects of such a fragment forfeit the guarantee.
func (cl *Cluster) SetCommutative(f fragments.FragmentID) { cl.commutative[f] = true }

// IsCommutative reports whether the fragment was declared commutative.
func (cl *Cluster) IsCommutative(f fragments.FragmentID) bool { return cl.commutative[f] }

// Start validates the schema and builds the node engines.
func (cl *Cluster) Start() error {
	if cl.started {
		return errors.New("core: cluster already started")
	}
	if err := cl.tokens.Validate(cl.cat); err != nil {
		return fmt.Errorf("core: invalid token assignment: %w", err)
	}
	if err := cl.validateAcyclicSubgraph(); err != nil {
		return err
	}
	for f := range cl.replicas {
		if home, ok := cl.tokens.HomeOfFragment(f); ok && !cl.IsReplica(f, home) {
			return fmt.Errorf("core: fragment %q's agent home %v is not among its replicas", f, home)
		}
	}
	cl.nodes = make([]*Node, cl.cfg.N)
	for i := 0; i < cl.cfg.N; i++ {
		if cl.cfg.SingleNode && netsim.NodeID(i) != cl.cfg.LocalNode {
			continue // remote nodes live in their own processes
		}
		cl.nodes[i] = newNode(cl, netsim.NodeID(i))
	}
	// Publish each cataloged fragment's class metadata (control option,
	// commutativity) to the labeled registry: the join key observers use
	// to map fragments to the paper's availability classes.
	for _, f := range cl.cat.Fragments() {
		cl.reg.SetFragInfo(f, metrics.FragInfo{
			Option:      cl.optionFor(f).String(),
			Commutative: cl.IsCommutative(f),
		})
	}
	cl.started = true
	return nil
}

// validateAcyclicSubgraph checks the Section 4.2 precondition for the
// transaction types that run under the AcyclicReads option: the
// declared read-access edges whose source is such a type must form an
// elementarily acyclic graph. With a uniform AcyclicReads cluster this
// is the whole declared graph, matching the paper's theorem; in a mixed
// cluster only the lock-free types are constrained (the rest are
// protected by their own, more restrictive policies).
func (cl *Cluster) validateAcyclicSubgraph() error {
	anyAcyclic := cl.cfg.Option == AcyclicReads
	for _, opt := range cl.fragOptions {
		if opt == AcyclicReads {
			anyAcyclic = true
		}
	}
	if !anyAcyclic {
		return nil
	}
	sub := fragments.NewReadAccessGraph(cl.cat)
	for _, e := range cl.rag.Edges() {
		if cl.optionFor(e[0]) == AcyclicReads {
			sub.AddEdge(e[0], e[1])
		}
	}
	if err := sub.Validate(); err != nil {
		return fmt.Errorf("core: AcyclicReads transaction types need an elementarily acyclic read-access subgraph: %w", err)
	}
	return nil
}

// Load installs an initial value for object o (already cataloged) in
// every node's copy of the database.
func (cl *Cluster) Load(o fragments.ObjectID, v any) error {
	if !cl.started {
		return errors.New("core: Load before Start")
	}
	f, ok := cl.cat.FragmentOf(o)
	if !ok {
		return fmt.Errorf("core: Load of uncataloged object %q", o)
	}
	for _, n := range cl.nodes {
		if n == nil || !cl.IsReplica(f, n.id) {
			continue
		}
		if err := n.store.Load(o, v); err != nil {
			return err
		}
	}
	return nil
}

// RunFor advances virtual time by d, executing all events due.
func (cl *Cluster) RunFor(d simtime.Duration) { cl.sched.RunFor(d) }

// RunUntil advances virtual time to t.
func (cl *Cluster) RunUntil(t simtime.Time) { cl.sched.RunUntil(t) }

// Now returns the current virtual time.
func (cl *Cluster) Now() simtime.Time { return cl.sched.Now() }

// Converged reports whether the cluster is quiescent: no active
// transactions, no buffered quasi-transactions, and every node has
// delivered every other node's full broadcast stream.
func (cl *Cluster) Converged() bool {
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		if len(n.active) > 0 {
			return false
		}
		for _, st := range n.streams {
			if len(st.pending) > 0 || st.applying {
				return false
			}
		}
	}
	for origin := 0; origin < cl.cfg.N; origin++ {
		// In SingleNode mode remote engines are unobservable; prefix
		// agreement then only covers the local node against itself.
		if cl.nodes[origin] == nil {
			continue
		}
		want := cl.nodes[origin].bcast.Prefix(netsim.NodeID(origin))
		for _, n := range cl.nodes {
			if n != nil && n.bcast.Prefix(netsim.NodeID(origin)) != want {
				return false
			}
		}
	}
	return true
}

// Settle runs the simulation in gossip-interval chunks until the
// cluster converges or maxExtra virtual time elapses. It reports
// whether convergence was reached. The network should be fully healed
// first.
func (cl *Cluster) Settle(maxExtra simtime.Duration) bool {
	deadline := cl.sched.Now().Add(maxExtra)
	chunk := 2 * cl.cfg.GossipInterval
	for {
		// Run first: submissions queued at the current instant have not
		// yet registered as active transactions.
		cl.sched.RunFor(chunk)
		if cl.Converged() {
			return true
		}
		if cl.sched.Now() >= deadline {
			return false
		}
	}
}

// Shutdown stops all periodic activity (gossip timers) so the event
// queue can drain.
func (cl *Cluster) Shutdown() {
	for _, n := range cl.nodes {
		if n != nil {
			n.bcast.Stop()
		}
	}
}

// RestartAll heals every link and restarts every crashed node through
// the crash-recovery path (volatile state rebuilt from the WAL and the
// broadcast journal). Scenario drivers call it before Settle so that a
// fault schedule, however hostile, always ends in a fully repaired
// network — the precondition of the convergence guarantees.
func (cl *Cluster) RestartAll() {
	if cl.net == nil {
		return // real deployment: restarts are the operator's lever
	}
	cl.net.Heal()
	for _, n := range cl.nodes {
		if cl.net.NodeDown(n.id) {
			n.SimulateCrashRestart()
			cl.net.SetNodeDown(n.id, false)
		}
	}
}

// ActiveTxnCount reports how many transactions are currently executing
// across all nodes. Nonzero after a generous Settle means wedged
// transactions — a liveness failure a chaos auditor wants to name
// precisely rather than fold into "did not converge".
func (cl *Cluster) ActiveTxnCount() int {
	total := 0
	for _, n := range cl.nodes {
		if n != nil {
			total += len(n.active)
		}
	}
	return total
}

// BufferedQuasiCount reports quasi-transactions buffered out-of-order
// (or awaiting a majority-commit decision) across all nodes. Nonzero
// after Settle means the propagation machinery wedged.
func (cl *Cluster) BufferedQuasiCount() int {
	total := 0
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		for _, st := range n.streams {
			total += len(st.pending) + len(st.prepared)
		}
	}
	return total
}

// CheckMutualConsistency verifies that, fragment by fragment, every
// replica holds an identical copy. Call after Settle.
func (cl *Cluster) CheckMutualConsistency() error {
	for _, f := range cl.cat.Fragments() {
		var base *Node
		for _, n := range cl.nodes {
			if n == nil || !cl.IsReplica(f, n.id) {
				continue
			}
			if base == nil {
				base = n
				continue
			}
			if diff := base.store.FragmentDiff(n.store, f); len(diff) > 0 {
				return fmt.Errorf("core: replicas %v and %v of fragment %q differ on %d objects, first %q",
					base.id, n.id, f, len(diff), diff[0])
			}
		}
	}
	return nil
}
