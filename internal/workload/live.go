package workload

import (
	"fmt"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
)

// Live is the deployment workload: the Section 2 bank plus, per node, a
// commutative counter fragment and a commutative queue fragment. The
// three client kinds span the availability spectrum the paper predicts:
//
//   - bank withdrawals read the BALANCES fragment, so their
//     availability depends on the control option (remote locks at the
//     central office under ReadLocks; local possibly-stale reads under
//     UnrestrictedReads);
//   - bank deposits, counter bumps, and queue appends are write-only on
//     a locally homed commutative fragment — available whenever the
//     local node is up, no matter what the rest of the cluster does.
//
// Every process of a multi-process deployment builds the identical
// schema from the same LiveConfig; each then submits only at its own
// node.
type Live struct {
	*Bank
	n int

	// seq generates unique entry keys per local fragment. Touched only
	// from engine context (the scheduler goroutine / loop), like the
	// bank's own sequence map.
	seq map[fragments.FragmentID]uint64

	// Forwarding state (see forward.go): outstanding remote operations
	// by request id. Touched only from engine context.
	nextFwd uint64
	pending map[uint64]*pendingFwd
}

// LiveConfig configures a Live workload.
type LiveConfig struct {
	// Cluster is the engine configuration.
	Cluster core.Config
	// NewCluster builds the unstarted cluster from Cluster: nil means
	// core.NewCluster, the simulator; a deployed process passes one that
	// calls core.NewDeployed.
	NewCluster func(core.Config) *core.Cluster
	// CentralNode hosts the bank's central office.
	CentralNode netsim.NodeID
	// Accounts is how many bank accounts to create (default 2 per
	// node), homed round-robin across nodes.
	Accounts int
	// InitialBalance and OverdraftFine as in BankConfig (defaults 1000
	// and 25).
	InitialBalance int64
	OverdraftFine  int64
	// ReadLockOption selects the Section 4.1 control option for the
	// bank instead of Section 4.3.
	ReadLockOption bool
	// AcyclicOption runs withdrawals lock-free under the Section 4.2
	// option by declaring the ACTIVITY→BALANCES read edges (customers
	// read the balance; the central office's BALANCES transactions read
	// ACTIVITY, which is the cyclic direction, so the office keeps the
	// unrestricted policy via a per-fragment override).
	AcyclicOption bool
}

// LiveAccount names account i of a Live workload.
func LiveAccount(i int) string { return fmt.Sprintf("A%02d", i) }

func counterFragment(node netsim.NodeID) fragments.FragmentID {
	return fragments.FragmentID(fmt.Sprintf("CTR(%d)", int(node)))
}

func queueFragment(node netsim.NodeID) fragments.FragmentID {
	return fragments.FragmentID(fmt.Sprintf("QUEUE(%d)", int(node)))
}

func counterAgent(node netsim.NodeID) fragments.AgentID {
	return fragments.AgentID(fmt.Sprintf("ctr:%d", int(node)))
}

func queueAgent(node netsim.NodeID) fragments.AgentID {
	return fragments.AgentID(fmt.Sprintf("q:%d", int(node)))
}

// NewLive builds and starts the live workload's cluster.
func NewLive(cfg LiveConfig) (*Live, error) {
	n := cfg.Cluster.N
	if cfg.Accounts <= 0 {
		cfg.Accounts = 2 * n
	}
	if cfg.InitialBalance == 0 {
		cfg.InitialBalance = 1000
	}
	if cfg.OverdraftFine == 0 {
		cfg.OverdraftFine = 25
	}
	bcfg := BankConfig{
		Cluster:        cfg.Cluster,
		CentralNode:    cfg.CentralNode,
		InitialBalance: cfg.InitialBalance,
		OverdraftFine:  cfg.OverdraftFine,
		ReadLockOption: cfg.ReadLockOption,
		CustomerHome:   make(map[string]netsim.NodeID),
	}
	for i := 0; i < cfg.Accounts; i++ {
		acct := LiveAccount(i)
		bcfg.Accounts = append(bcfg.Accounts, acct)
		bcfg.CustomerHome[acct] = netsim.NodeID(i % n)
	}
	bcfg.Schema = func(cl *core.Cluster) error {
		for i := 0; i < n; i++ {
			node := netsim.NodeID(i)
			for _, f := range []fragments.FragmentID{counterFragment(node), queueFragment(node)} {
				if err := cl.Catalog().AddFragment(f); err != nil {
					return err
				}
				cl.SetCommutative(f)
			}
			cl.Tokens().Assign(counterFragment(node), counterAgent(node), node)
			cl.Tokens().Assign(queueFragment(node), queueAgent(node), node)
		}
		if cfg.AcyclicOption {
			// Customers read BALANCES: the declared, elementarily acyclic
			// direction. The office's own transaction types keep the
			// unrestricted policy (their ACTIVITY reads close the cycle).
			for _, acct := range bcfg.Accounts {
				cl.DeclareRead(activityFragment(acct), "BALANCES")
				cl.SetFragmentOption(activityFragment(acct), core.AcyclicReads)
			}
		}
		return nil
	}
	if cfg.AcyclicOption {
		bcfg.ReadLockOption = false // base option stays unrestricted
	}
	if cfg.NewCluster == nil {
		cfg.NewCluster = core.NewCluster
	}
	b, err := buildBank(bcfg, cfg.NewCluster)
	if err != nil {
		return nil, err
	}
	lv := &Live{Bank: b, n: n,
		seq:     make(map[fragments.FragmentID]uint64),
		pending: make(map[uint64]*pendingFwd),
	}
	lv.installForwarding()
	return lv, nil
}

// next returns a fresh entry key for the node-local fragment f.
func (lv *Live) next(f fragments.FragmentID, node netsim.NodeID) fragments.ObjectID {
	lv.seq[f]++
	return fragments.ObjectID(fmt.Sprintf("%s:%d:%d", f, int(node), lv.seq[f]))
}

// Bump submits an increment of the node's own counter fragment
// (write-only commutative: a new entry with the increment value),
// routed to the agent's current home if placement moved it.
func (lv *Live) Bump(node netsim.NodeID, by int64, done func(core.TxnResult)) {
	lv.BumpAt(node, node, by, done)
}

// Enqueue appends an item to the node's own queue fragment, routed to
// the agent's current home if placement moved it.
func (lv *Live) Enqueue(node netsim.NodeID, item string, done func(core.TxnResult)) {
	lv.EnqueueAt(node, node, item, done)
}

// CounterTotal sums every counter entry replicated at the node.
func (lv *Live) CounterTotal(at netsim.NodeID) int64 {
	var total int64
	store := lv.Cluster().Node(at).Store()
	for i := 0; i < lv.n; i++ {
		for _, v := range store.FragmentSnapshot(counterFragment(netsim.NodeID(i))) {
			if inc, ok := v.Value.(int64); ok {
				total += inc
			}
		}
	}
	return total
}

// QueueLen counts every queue entry replicated at the node.
func (lv *Live) QueueLen(at netsim.NodeID) int {
	count := 0
	store := lv.Cluster().Node(at).Store()
	for i := 0; i < lv.n; i++ {
		count += len(store.FragmentSnapshot(queueFragment(netsim.NodeID(i))))
	}
	return count
}
