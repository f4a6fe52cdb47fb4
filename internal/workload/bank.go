// Package workload implements the paper's three motivating
// applications as libraries over the core engine:
//
//   - Bank (Sections 1-2): customer-controlled ACTIVITY fragments,
//     central-office-controlled BALANCES and RECORDED fragments,
//     centralized overdraft fines.
//   - Airline (Section 4.3, Figure 4.3.3; Section 4.4): customer
//     request fragments and flight assignment fragments; overbooking
//     prevented by centralized granting; a stopover flight whose seat
//     fragment's agent moves with the plane.
//   - Warehouse (Section 4.2, Figure 4.2.1): per-warehouse sales and
//     stock fragments read by a central purchasing fragment over an
//     elementarily acyclic read-access graph.
//
// Each application doubles as a workload generator for the experiment
// harness in package exp.
package workload

import (
	"errors"
	"strconv"
	"strings"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// ErrInsufficientFunds denies a withdrawal against the locally visible
// balance.
var ErrInsufficientFunds = errors.New("workload: insufficient funds")

// BankConfig configures a Bank.
type BankConfig struct {
	// Cluster is the core configuration (N, option, seed, latencies).
	// The bank forces Option to UnrestrictedReads: its read-access
	// pattern (customers read BALANCES, the central office reads
	// ACTIVITY) is elementarily cyclic by design, so the Section 4.3
	// strategy — fragmentwise serializability — is the one the paper
	// prescribes for it.
	Cluster core.Config
	// CentralNode hosts the central office (agent of BALANCES and all
	// RECORDED fragments).
	CentralNode netsim.NodeID
	// Accounts to create, each with InitialBalance.
	Accounts []string
	// CustomerHome maps each account's customer agent to a home node.
	// Accounts not listed start at CentralNode.
	CustomerHome map[string]netsim.NodeID
	// InitialBalance per account.
	InitialBalance int64
	// OverdraftFine is deducted by the central office whenever
	// processing drives a balance negative.
	OverdraftFine int64
	// ReadLockOption runs the bank under the Section 4.1 control option
	// instead of the Section 4.3 one: withdrawals then lock the BALANCES
	// fragment at the central office, gaining global serializability and
	// losing availability whenever the central office is unreachable.
	// Used by experiment E1 to plot the spectrum.
	ReadLockOption bool
	// Schema, when set, is invoked on the cluster after the bank's own
	// fragments are declared and before Start — the hook for embedding
	// the bank in a larger database (the live workload adds its counter
	// and queue fragments here). Every process of a multi-process
	// deployment must declare the identical schema.
	Schema func(cl *core.Cluster) error
}

// Letter records an overdraft notification "sent" to a customer by the
// central office (the paper's corrective action).
type Letter struct {
	Account string
	Balance int64 // balance at assessment time, before the fine
	Fine    int64
	At      simtime.Time
}

// Bank is the Section 2 banking database on fragments and agents.
type Bank struct {
	cl      *core.Cluster
	central netsim.NodeID
	fine    int64

	// perNodeSeq generates unique activity-entry keys per (node, acct)
	// without reading the ACTIVITY fragment (keeping customer
	// transactions write-only on their own fragment, which is what lets
	// customers move freely; see the Section 4.4.2A remark).
	perNodeSeq map[nodeAcct]uint64
	// accts caches each account's ids and labels; office is the central
	// node's agent.
	accts  map[string]*acctIDs
	office fragments.AgentID

	// processed marks activity entries already handled by the central
	// office (its in-memory worklist; the durable record is RECORDED).
	processed map[fragments.ObjectID]bool

	// queue serializes the central office's processing: one
	// BALANCES+RECORDED pair at a time, so its own transactions never
	// deadlock with each other. A quasi-transaction that arrives while
	// its account already has an item waiting here joins that item as
	// one more group (see onQuasi), so the pair that is running sets the
	// size of the next one.
	queue []*bankWork
	busy  bool
	fold  bool // false under the Section 4.1 option

	letters []Letter
}

// foldCap bounds the entries one fold absorbs. At the simulator's 1 ms
// operation latency a fold of k entries reads for k ms; 256 keeps a
// full fold far inside the default transaction timeout, so a backlog
// drains in several folds instead of timing out and retrying forever.
const foldCap = 256

// bankWork is one BALANCES+RECORDED pair's input: the entries of one or
// more quasi-transactions on acct's ACTIVITY fragment, in arrival
// order. Each quasi-transaction's entries form a group; cuts lists
// where each group after the first starts in entries.
type bankWork struct {
	acct    string
	entries []fragments.ObjectID
	cuts    []int
}

// CustomerAgent names the agent owning account acct's ACTIVITY fragment.
func CustomerAgent(acct string) fragments.AgentID {
	return fragments.AgentID("cust:" + acct)
}

// activityFragment names account acct's ACTIVITY fragment.
func activityFragment(acct string) fragments.FragmentID {
	return fragments.FragmentID("ACTIVITY(" + acct + ")")
}

// recordedFragment names account acct's RECORDED fragment.
func recordedFragment(acct string) fragments.FragmentID {
	return fragments.FragmentID("RECORDED(" + acct + ")")
}

// acctIDs are the ids and labels one account's transactions name, made
// once per account rather than concatenated per transaction.
type acctIDs struct {
	agent              fragments.AgentID
	activity, recorded fragments.FragmentID
	bal                fragments.ObjectID
	// Transaction labels.
	deposit, withdraw, record, mark string
}

// ids returns acct's acctIDs.
func (b *Bank) ids(acct string) *acctIDs {
	id, ok := b.accts[acct]
	if !ok {
		id = &acctIDs{
			agent: CustomerAgent(acct), activity: activityFragment(acct),
			recorded: recordedFragment(acct), bal: balObj(acct),
			deposit: "deposit:" + acct, withdraw: "withdraw:" + acct,
			record: "record:" + acct, mark: "mark:" + acct,
		}
		b.accts[acct] = id
	}
	return id
}

// nodeAcct keys the activity-entry sequences.
type nodeAcct struct {
	node netsim.NodeID
	acct string
}

// activityEntry names the seq-th ACTIVITY entry that acct's customer
// made at node, "act:<acct>:<node>:<seq>", in one allocation.
func activityEntry(acct string, node netsim.NodeID, seq uint64) fragments.ObjectID {
	var buf [64]byte
	b := append(buf[:0], "act:"...)
	b = append(b, acct...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, seq, 10)
	return fragments.ObjectID(b)
}

func balObj(acct string) fragments.ObjectID {
	return fragments.ObjectID("bal:" + acct)
}

// NewBank builds and starts the banking cluster in the simulator.
func NewBank(cfg BankConfig) (*Bank, error) { return buildBank(cfg, core.NewCluster) }

// buildBank builds the bank on the cluster that host makes from
// cfg.Cluster.
func buildBank(cfg BankConfig, host func(core.Config) *core.Cluster) (*Bank, error) {
	cfg.Cluster.Option = core.UnrestrictedReads
	if cfg.ReadLockOption {
		cfg.Cluster.Option = core.ReadLocks
	}
	cl := host(cfg.Cluster)
	central := fragments.NodeAgent(cfg.CentralNode)

	balances := make([]fragments.ObjectID, 0, len(cfg.Accounts))
	for _, acct := range cfg.Accounts {
		balances = append(balances, balObj(acct))
	}
	if err := cl.Catalog().AddFragment("BALANCES", balances...); err != nil {
		return nil, err
	}
	cl.Tokens().Assign("BALANCES", central, cfg.CentralNode)
	for _, acct := range cfg.Accounts {
		if err := cl.Catalog().AddFragment(activityFragment(acct)); err != nil {
			return nil, err
		}
		if err := cl.Catalog().AddFragment(recordedFragment(acct)); err != nil {
			return nil, err
		}
		home, ok := cfg.CustomerHome[acct]
		if !ok {
			home = cfg.CentralNode
		}
		cl.Tokens().Assign(activityFragment(acct), CustomerAgent(acct), home)
		cl.Tokens().Assign(recordedFragment(acct), central, cfg.CentralNode)
		// ACTIVITY transactions only create new entries: write-only and
		// commutative, so customers can move freely (Section 4.4.2A).
		cl.SetCommutative(activityFragment(acct))
	}
	if cfg.Schema != nil {
		if err := cfg.Schema(cl); err != nil {
			return nil, err
		}
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	for _, acct := range cfg.Accounts {
		if err := cl.Load(balObj(acct), cfg.InitialBalance); err != nil {
			return nil, err
		}
	}
	b := &Bank{
		cl:         cl,
		central:    cfg.CentralNode,
		fine:       cfg.OverdraftFine,
		perNodeSeq: make(map[nodeAcct]uint64),
		accts:      make(map[string]*acctIDs),
		office:     central,
		processed:  make(map[fragments.ObjectID]bool),
		fold:       !cfg.ReadLockOption,
	}
	cl.OnQuasiApplied(b.onQuasi)
	return b, nil
}

// Cluster exposes the underlying engine (partition control, metrics,
// settling).
func (b *Bank) Cluster() *core.Cluster { return b.cl }

// Letters returns the overdraft notifications issued so far.
func (b *Bank) Letters() []Letter { return b.letters }

// Deposit submits a deposit by acct's customer at the given node.
func (b *Bank) Deposit(node netsim.NodeID, acct string, amount int64, done func(core.TxnResult)) {
	b.operation(node, acct, amount, 0, done)
}

// Withdraw submits a withdrawal by acct's customer at the given node.
// The decision reads the BALANCES fragment's locally replicated value,
// exactly as the paper prescribes; during partitions it may be stale,
// and the central office assesses a fine if an overdraft results.
func (b *Bank) Withdraw(node netsim.NodeID, acct string, amount int64, done func(core.TxnResult)) {
	b.operation(node, acct, -amount, 0, done)
}

// WithdrawWithTimeout is Withdraw with an explicit transaction timeout,
// used by experiments to bound blocking under the Section 4.1 option.
func (b *Bank) WithdrawWithTimeout(node netsim.NodeID, acct string, amount int64,
	timeout simtime.Duration, done func(core.TxnResult)) {
	b.operation(node, acct, -amount, timeout, done)
}

// operation runs one banking operation: signed amount > 0 deposits,
// < 0 withdraws.
func (b *Bank) operation(node netsim.NodeID, acct string, amount int64,
	timeout simtime.Duration, done func(core.TxnResult)) {
	key := nodeAcct{node, acct}
	b.perNodeSeq[key]++
	entry := activityEntry(acct, node, b.perNodeSeq[key])
	ids := b.ids(acct)
	label := ids.deposit
	if amount < 0 {
		label = ids.withdraw
	}
	b.cl.Node(node).Submit(core.TxnSpec{
		Agent:    ids.agent,
		Fragment: ids.activity,
		Label:    label,
		Timeout:  timeout,
		Program: func(tx *core.Tx) error {
			if amount < 0 {
				bal, err := tx.ReadInt(ids.bal)
				if err != nil {
					return err
				}
				if bal+amount < 0 {
					return ErrInsufficientFunds
				}
			}
			return tx.Write(entry, amount)
		},
	}, done)
}

// onQuasi is the central office's trigger: when an ACTIVITY update is
// installed at the central node, a transaction on BALANCES applies it
// to the balance (assessing a fine if the balance goes negative), and a
// transaction on RECORDED marks the entries processed (Section 2).
//
// The office folds what is queued: if acct already has an item waiting
// to run, the update's entries join it as one more group, as long as
// the item stays within foldCap entries. Under the Section 4.1 option
// every ACTIVITY read is a remote read lock held while BALANCES is
// locked, so a fold's length would grow with its entries times the
// round trip; there each update keeps a pair of its own.
func (b *Bank) onQuasi(node netsim.NodeID, q txn.Quasi) {
	if node != b.central {
		return
	}
	f := string(q.Fragment)
	if !strings.HasPrefix(f, "ACTIVITY(") {
		return
	}
	acct := strings.TrimSuffix(strings.TrimPrefix(f, "ACTIVITY("), ")")
	var entries []fragments.ObjectID
	for _, w := range q.Writes {
		if b.processed[w.Object] {
			continue
		}
		b.processed[w.Object] = true
		entries = append(entries, w.Object)
	}
	if len(entries) == 0 {
		return
	}
	// Under folding the queue holds at most a few items per account, so
	// the scan is short; under Section 4.1 it grows without bound.
	for i := len(b.queue) - 1; b.fold && i >= 0; i-- {
		if item := b.queue[i]; item.acct == acct {
			if len(item.entries)+len(entries) > foldCap {
				break
			}
			item.cuts = append(item.cuts, len(item.entries))
			item.entries = append(item.entries, entries...)
			return
		}
	}
	b.queue = append(b.queue, &bankWork{acct: acct, entries: entries})
	b.kick()
}

// kick starts processing the next queued work item if none is running.
func (b *Bank) kick() {
	if b.busy || len(b.queue) == 0 {
		return
	}
	b.busy = true
	item := b.queue[0]
	b.queue[0] = nil
	b.queue = b.queue[1:]
	b.runWork(item)
}

// runWork executes one BALANCES transaction followed by its RECORDED
// companion — two single-fragment transactions, per the paper's
// footnote on replacing multi-fragment transactions by groups. BALANCES
// adds the groups in arrival order and checks for an overdraft after
// each one, so a fold assesses the same fines as one pair per group.
func (b *Bank) runWork(item *bankWork) {
	acct, entries, ids := item.acct, item.entries, b.ids(item.acct)
	var letters []Letter
	b.cl.Node(b.central).Submit(core.TxnSpec{
		Agent: b.office, Fragment: "BALANCES", Label: ids.record,
		Program: func(tx *core.Tx) error {
			letters = nil // a program may run more than once
			bal, err := tx.ReadInt(ids.bal)
			if err != nil {
				return err
			}
			start := 0
			for g := 0; g <= len(item.cuts); g++ {
				end := len(entries)
				if g < len(item.cuts) {
					end = item.cuts[g]
				}
				for _, e := range entries[start:end] {
					v, err := tx.ReadInt(e)
					if err != nil {
						return err
					}
					bal += v
				}
				start = end
				if bal < 0 && b.fine > 0 {
					letters = append(letters, Letter{
						Account: acct, Balance: bal, Fine: b.fine, At: b.cl.Now(),
					})
					bal -= b.fine
				}
			}
			return tx.Write(ids.bal, bal)
		},
	}, func(r core.TxnResult) {
		if !r.Committed {
			// Wounded or deadlocked against customer traffic: retry.
			b.runWork(item)
			return
		}
		b.letters = append(b.letters, letters...)
		b.cl.Stats().CorrectiveActions.Add(uint64(len(letters)))
		b.record(item)
	})
}

// record marks a committed BALANCES transaction's entries in RECORDED.
// It retries until it commits: BALANCES already holds the entries and
// processed their ids, so a lost mark would make LocalView count them
// twice.
func (b *Bank) record(item *bankWork) {
	ids := b.ids(item.acct)
	b.cl.Node(b.central).Submit(core.TxnSpec{
		Agent: b.office, Fragment: ids.recorded, Label: ids.mark,
		Program: func(tx *core.Tx) error {
			for _, e := range item.entries {
				if err := tx.Write(fragments.ObjectID("rec:"+string(e)), true); err != nil {
					return err
				}
			}
			return nil
		},
	}, func(r core.TxnResult) {
		if !r.Committed {
			b.record(item)
			return
		}
		b.busy = false
		b.kick()
	})
}

// Balance returns the BALANCES value for acct as replicated at node
// (the recorded balance, not counting unrecorded activity).
func (b *Bank) Balance(node netsim.NodeID, acct string) int64 {
	v, _ := b.cl.Node(node).Store().Get(balObj(acct))
	if v == nil {
		return 0
	}
	return v.(int64)
}

// LocalView computes the paper's "local view of balance" at a node:
// balance + unrecorded deposits - unrecorded withdrawals, using the
// node's replicas of BALANCES, ACTIVITY(acct), and RECORDED(acct).
func (b *Bank) LocalView(node netsim.NodeID, acct string) int64 {
	view := b.Balance(node, acct)
	store := b.cl.Node(node).Store()
	for _, entry := range b.Unrecorded(node, acct) {
		v, _ := store.Get(entry)
		view += v.(int64)
	}
	return view
}

// Unrecorded lists the ACTIVITY entries of acct replicated at node that
// carry no RECORDED mark there, in sorted order.
func (b *Bank) Unrecorded(node netsim.NodeID, acct string) []fragments.ObjectID {
	store := b.cl.Node(node).Store()
	var out []fragments.ObjectID
	for _, entry := range store.Objects(activityFragment(acct)) {
		if rec, _ := store.Get(fragments.ObjectID("rec:" + string(entry))); rec == true {
			continue // already reflected in the balance
		}
		out = append(out, entry)
	}
	return out
}

// MoveCustomer relocates an account's customer agent to another node.
// Because customer transactions are write-only on their own fragment
// (and commutative — they only create new entries), the agent may move
// with no data transport at all, per the Section 4.4.2A observation.
func (b *Bank) MoveCustomer(acct string, to netsim.NodeID) error {
	return b.cl.Tokens().MoveAgent(CustomerAgent(acct), to)
}
