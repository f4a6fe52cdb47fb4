// Package deploy assembles one real-deployment node: a core engine
// built by core.NewDeployed over a real transport, driven on the wall
// clock by an rtnet.Loop, its operations costing the work they do.
// cmd/hanode wraps it in a process; tests assemble several in one
// process, over TCP sockets on the loopback interface.
package deploy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	"fragdb/internal/simtime"
	"fragdb/internal/workload"
)

// Config describes one node of a deployed cluster. Every node of the
// cluster must agree on Addrs order, Option, Accounts, and Seed — they
// derive the schema each process builds locally.
type Config struct {
	// ID is this node's index into Addrs.
	ID int
	// Addrs lists every node's listen address, in node-id order.
	Addrs []string
	// Option is the control option: "unrestricted" (default),
	// "read-locks", or "acyclic-reads".
	Option string
	// Accounts is the number of bank accounts (default 2 per node).
	Accounts int
	// Seed seeds the node's scheduler.
	Seed int64
	// MajorityCommit enables the Section 4.4.1 commit protocol.
	MajorityCommit bool
	// TxnTimeout bounds blocked transactions (default 2s — deliberately
	// shorter than the simulator's 5s so unavailability shows up as
	// fast aborts in availability experiments rather than long stalls).
	TxnTimeout time.Duration
	// TraceCap sizes the local node's flight-recorder ring (events kept;
	// default 4096 — enough tail for cross-node timeline correlation at
	// load-harness rates). Negative disables tracing.
	TraceCap int
	// Listener, when non-nil, is the pre-bound listen socket (tests).
	Listener net.Listener
}

// ParseOption maps an option name to the workload's flags.
func ParseOption(opt string) (readLock, acyclic bool, err error) {
	switch opt {
	case "", "unrestricted":
		return false, false, nil
	case "read-locks":
		return true, false, nil
	case "acyclic-reads":
		return false, true, nil
	default:
		return false, false, fmt.Errorf("deploy: unknown control option %q", opt)
	}
}

// Node is one running deployment node.
type Node struct {
	Cfg  Config
	Live *workload.Live
	Loop *rtnet.Loop
	// TCP is the transport when built by NewTCP, nil under New with a
	// custom transport.
	TCP *rtnet.TCP

	local netsim.NodeID
	close sync.Once
}

// New assembles a node over an already-built transport (whose handler
// invocations will be routed through the node's loop) and starts its
// loop. raw must span len(cfg.Addrs) nodes.
func New(cfg Config, raw netsim.Transport) (*Node, error) { return build(cfg, raw, nil) }

// build is New with a hook over the engine configuration, for tests
// that need engine settings a deployment does not expose.
func build(cfg Config, raw netsim.Transport, tune func(*core.Config)) (*Node, error) {
	readLock, acyclic, err := ParseOption(cfg.Option)
	if err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= len(cfg.Addrs) {
		return nil, fmt.Errorf("deploy: node id %d outside cluster of %d", cfg.ID, len(cfg.Addrs))
	}
	if cfg.TxnTimeout <= 0 {
		cfg.TxnTimeout = 2 * time.Second
	}
	if cfg.TraceCap == 0 {
		cfg.TraceCap = 4096
	} else if cfg.TraceCap < 0 {
		cfg.TraceCap = 0
	}
	engine := core.Config{
		N:              len(cfg.Addrs),
		TxnTimeout:     simtime.Duration(cfg.TxnTimeout),
		MajorityCommit: cfg.MajorityCommit,
		TraceCap:       cfg.TraceCap,
	}
	if tune != nil {
		tune(&engine)
	}
	// Deliveries run on the loop; those arriving before it starts wait
	// in its queue.
	sched := simtime.NewScheduler(cfg.Seed)
	loop := rtnet.NewLoop(sched)
	tr := rtnet.ExecTransport{Transport: raw, Loop: loop}
	local := netsim.NodeID(cfg.ID)
	lv, err := workload.NewLive(workload.LiveConfig{
		Cluster: engine,
		NewCluster: func(c core.Config) *core.Cluster {
			return core.NewDeployed(c, local, sched, tr)
		},
		CentralNode:    0,
		Accounts:       cfg.Accounts,
		ReadLockOption: readLock,
		AcyclicOption:  acyclic,
	})
	if err != nil {
		return nil, err
	}
	loop.Start()
	return &Node{Cfg: cfg, Live: lv, Loop: loop, local: local}, nil
}

// NewTCP builds the node over a real TCP transport listening on
// cfg.Addrs[cfg.ID] (or cfg.Listener).
func NewTCP(cfg Config) (*Node, error) {
	tcp, err := rtnet.NewTCP(rtnet.TCPConfig{
		Local:    netsim.NodeID(cfg.ID),
		Addrs:    cfg.Addrs,
		Listener: cfg.Listener,
	})
	if err != nil {
		return nil, err
	}
	n, err := New(cfg, tcp)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	n.TCP = tcp
	return n, nil
}

// Close stops the transport (when owned) and the loop. Idempotent.
func (n *Node) Close() {
	n.close.Do(func() {
		if n.TCP != nil {
			n.TCP.Close()
		}
		n.Loop.Stop()
	})
}

// Op is one client operation against the node.
type Op struct {
	// Kind is "deposit", "withdraw", "bump", or "enqueue".
	Kind string `json:"kind"`
	// Account selects the bank account for deposit/withdraw.
	Account string `json:"account,omitempty"`
	// Amount is the deposit/withdraw amount or the bump increment.
	Amount int64 `json:"amount,omitempty"`
	// Item is the enqueue payload.
	Item string `json:"item,omitempty"`
	// Counter, when set, targets counter/queue fragment CTR(*Counter) /
	// QUEUE(*Counter) instead of the node's own. The operation is
	// routed to the fragment agent's current home, so skewed workloads
	// generate the cross-node traffic adaptive placement chases.
	Counter *int `json:"counter,omitempty"`
}

// ErrLoopStopped reports a submission against a closed node.
var ErrLoopStopped = errors.New("deploy: node loop stopped")

// Do submits the operation; done runs on the loop goroutine when the
// transaction finishes. Returns without submitting on a malformed op or
// a stopped loop.
func (n *Node) Do(op Op, done func(core.TxnResult)) error {
	// Each closure captures only the fields it uses, not the whole Op.
	var submit func()
	switch acct, amount := op.Account, op.Amount; op.Kind {
	case "deposit":
		submit = func() { n.Live.Deposit(n.local, acct, amount, done) }
	case "withdraw":
		submit = func() { n.Live.Withdraw(n.local, acct, amount, done) }
	case "bump":
		by := op.Amount
		if by == 0 {
			by = 1
		}
		ctr := n.local
		if op.Counter != nil {
			ctr = netsim.NodeID(*op.Counter % len(n.Cfg.Addrs))
		}
		submit = func() { n.Live.BumpAt(n.local, ctr, by, done) }
	case "enqueue":
		q, item := n.local, op.Item
		if op.Counter != nil {
			q = netsim.NodeID(*op.Counter % len(n.Cfg.Addrs))
		}
		submit = func() { n.Live.EnqueueAt(n.local, q, item, done) }
	default:
		return fmt.Errorf("deploy: unknown op kind %q", op.Kind)
	}
	if !n.Loop.Inject(submit) {
		return ErrLoopStopped
	}
	return nil
}

// Inspect runs fn on the loop goroutine and waits for it — the safe way
// to read engine state (stores, balances) from other goroutines.
func (n *Node) Inspect(fn func()) error {
	doneCh := make(chan struct{})
	if !n.Loop.Inject(func() {
		defer close(doneCh)
		fn()
	}) {
		return ErrLoopStopped
	}
	<-doneCh
	return nil
}

// SetPeerDrop installs or clears a partition drop rule (TCP-backed
// nodes only).
func (n *Node) SetPeerDrop(peer int, drop bool) error {
	if n.TCP == nil {
		return errors.New("deploy: no TCP transport to set drop rules on")
	}
	n.TCP.SetPeerDrop(netsim.NodeID(peer), drop)
	return nil
}

// DebugVars bundles the node's observability state for rtnet's debug
// HTTP handler.
func (n *Node) DebugVars() rtnet.DebugVars {
	cl := n.Live.Cluster()
	v := rtnet.DebugVars{
		Counters:  cl.Stats(),
		Broadcast: cl.BroadcastStats(),
		Registry:  cl.Registry(),
		Runtime:   true,

		LockTableEntries: cl.Node(n.local).LockTableEntries,
	}
	if n.TCP != nil {
		v.TCP = n.TCP.Stats()
	}
	for i := 0; i < len(n.Cfg.Addrs); i++ {
		v.Tracers = append(v.Tracers, cl.Trace(netsim.NodeID(i)))
	}
	return v
}
