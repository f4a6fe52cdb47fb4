package baselines

import (
	"sort"

	"fragdb/internal/broadcast"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/wire"
)

// Entries ride the shared broadcaster like any other payload, so the
// wire layer must be able to encode them for netsim's byte accounting
// (halint: wireencodable). Tags 0x38–0x3f are this package's.
func init() {
	wire.Register(0x38,
		func(e Entry) int {
			return wire.SizeNodeID(e.Node) + wire.SizeUvarint(e.Seq) + wire.SizeVarint(int64(e.Stamp)) +
				wire.SizeVarint(int64(e.Op)) + wire.SizeString(e.Acct) + wire.SizeVarint(e.Amount) +
				wire.SizeNodeID(e.RefNode) + wire.SizeUvarint(e.RefSeq)
		},
		func(b []byte, e Entry) []byte {
			b = wire.AppendNodeID(b, e.Node)
			b = wire.AppendUvarint(b, e.Seq)
			b = wire.AppendVarint(b, int64(e.Stamp))
			b = wire.AppendVarint(b, int64(e.Op))
			b = wire.AppendString(b, e.Acct)
			b = wire.AppendVarint(b, e.Amount)
			b = wire.AppendNodeID(b, e.RefNode)
			return wire.AppendUvarint(b, e.RefSeq)
		},
		func(r *wire.Reader) Entry {
			return Entry{Node: r.NodeID(), Seq: r.Uvarint(), Stamp: simtime.Time(r.Varint()),
				Op: Op(r.Varint()), Acct: r.Str(), Amount: r.Varint(),
				RefNode: r.NodeID(), RefSeq: r.Uvarint()}
		})
}

// Entry is one log record of the log-transformation baseline: a banking
// operation executed somewhere in the system. (Node, Seq) identifies it
// globally; Stamp orders the merged history.
type Entry struct {
	Node   netsim.NodeID
	Seq    uint64
	Stamp  simtime.Time
	Op     Op
	Acct   string
	Amount int64
	// Ref identifies, for Fine and Void entries, the withdrawal that
	// caused the overdraft, as (Node, Seq) of that entry.
	RefNode netsim.NodeID
	RefSeq  uint64
}

// Policy selects how a node repairs an overdraft it discovers in the
// merged history (the paper's "corrective actions").
type Policy int

const (
	// FinePolicy keeps the overdrawing withdrawal and deducts a fine —
	// the Section 1 bank's stated policy.
	FinePolicy Policy = iota
	// BackoutPolicy voids the overdrawing withdrawal instead — the
	// paper's other face of log transformation: deciding "which of the
	// transactions from the local log had to be backed out." The cash
	// already left the teller; the void only repairs the database.
	BackoutPolicy
)

// key identifies an entry.
type key struct {
	node netsim.NodeID
	seq  uint64
}

// LogMerge is the log-transformation ("free-for-all") baseline. Every
// node accepts any operation against its local view immediately; logs
// propagate over the same reliable anti-entropy broadcast the main
// system uses; each node independently recomputes balances from the
// merged, timestamp-ordered log and assesses fines for overdrafts it
// discovers. Convergence of replicas is guaranteed; single-assessor
// discipline is not — duplicate fines measure the paper's Section 1
// criticism of decentralized corrective actions.
type LogMerge struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	stats *metrics.Counters
	// FineAmount is deducted per detected overdraft (FinePolicy).
	FineAmount int64
	// Policy selects fine vs. back-out repair.
	Policy Policy
	// Backouts counts withdrawals voided under BackoutPolicy.
	Backouts int

	preloadSeq uint64
	nodes      []*lmNode
}

type lmNode struct {
	id    netsim.NodeID
	lm    *LogMerge
	bcast *broadcast.Broadcaster
	// entries is every log record known to this node.
	entries map[key]Entry
	nextSeq uint64
	// fined maps an overdraft-causing entry to whether this node has
	// seen (or issued) a fine for it.
	fined map[key]bool
	// voided marks withdrawals backed out under BackoutPolicy.
	voided map[key]bool
}

// NewLogMerge builds the baseline over an existing simulated network.
func NewLogMerge(sched *simtime.Scheduler, net *netsim.Network, gossip simtime.Duration, fine int64) *LogMerge {
	lm := &LogMerge{
		sched: sched, net: net,
		stats:      &metrics.Counters{},
		FineAmount: fine,
	}
	lm.nodes = make([]*lmNode, net.N())
	for i := 0; i < net.N(); i++ {
		id := netsim.NodeID(i)
		n := &lmNode{
			id: id, lm: lm,
			entries: make(map[key]Entry),
			fined:   make(map[key]bool),
			voided:  make(map[key]bool),
		}
		n.bcast = broadcast.New(id, net, broadcast.SchedulerTimer{S: sched},
			broadcast.Config{GossipInterval: int64(gossip)},
			func(origin netsim.NodeID, seq uint64, payload any) {
				n.ingest(payload.(Entry))
			})
		net.SetHandler(id, func(from netsim.NodeID, payload any) {
			n.bcast.HandleMessage(from, payload)
		})
		lm.nodes[i] = n
	}
	return lm
}

// Name identifies the system in experiment tables.
func (lm *LogMerge) Name() string { return "log-transformation" }

// Stats returns the baseline's counters.
func (lm *LogMerge) Stats() *metrics.Counters { return lm.stats }

// Shutdown stops the anti-entropy timers.
func (lm *LogMerge) Shutdown() {
	for _, n := range lm.nodes {
		n.bcast.Stop()
	}
}

// preloadNode is the sentinel origin for initial balances, distinct
// from any real node so preloaded entries never collide with runtime
// log keys.
const preloadNode = netsim.NodeID(-1)

// Load records an initial balance as a deposit entry known everywhere
// (outside the simulation's message flow).
func (lm *LogMerge) Load(acct string, bal int64) {
	lm.preloadSeq++
	e := Entry{Node: preloadNode, Seq: lm.preloadSeq, Stamp: 0, Op: Deposit, Acct: acct, Amount: bal}
	for _, n := range lm.nodes {
		n.entries[key{node: e.Node, seq: e.Seq}] = e
	}
}

// Execute submits a deposit or withdrawal at the given node. Decisions
// use the node's current merged view; withdrawals exceeding the local
// view are denied, matching the Section 1 narrative ("neither of them
// requires the withdrawal of an amount exceeding the balance").
func (lm *LogMerge) Execute(node netsim.NodeID, op Op, acct string, amount int64, done func(Outcome)) {
	lm.stats.Offered.Add(1)
	lm.sched.After(0, func() {
		n := lm.nodes[node]
		if op == Withdraw && n.balance(acct) < amount {
			lm.stats.Aborted.Add(1)
			if done != nil {
				done(Outcome{Denied: true, Reason: "insufficient funds (local view)"})
			}
			return
		}
		n.nextSeq++
		e := Entry{
			Node: node, Seq: n.nextSeq, Stamp: lm.sched.Now(),
			Op: op, Acct: acct, Amount: amount,
		}
		lm.stats.Committed.Add(1)
		n.bcast.Send(e) // delivers locally first, then propagates
		if done != nil {
			done(Outcome{Granted: true})
		}
	})
}

// Balance returns node's merged-view balance for the account.
func (lm *LogMerge) Balance(node netsim.NodeID, acct string) int64 {
	return lm.nodes[node].balance(acct)
}

// ingest merges a propagated entry and runs overdraft detection.
func (n *lmNode) ingest(e Entry) {
	k := key{node: e.Node, seq: e.Seq}
	if _, dup := n.entries[k]; dup {
		return
	}
	n.entries[k] = e
	switch e.Op {
	case Fine:
		n.fined[key{node: e.RefNode, seq: e.RefSeq}] = true
	case Void:
		n.voided[key{node: e.RefNode, seq: e.RefSeq}] = true
	}
	n.detectOverdrafts(e.Acct)
}

// history returns the account's entries in merged (Stamp, Node, Seq)
// order.
func (n *lmNode) history(acct string) []Entry {
	var out []Entry
	for _, e := range n.entries {
		if e.Acct == acct {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Stamp != b.Stamp {
			return a.Stamp < b.Stamp
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// balance recomputes the merged balance, skipping voided withdrawals.
func (n *lmNode) balance(acct string) int64 {
	bal := int64(0)
	for _, e := range n.history(acct) {
		switch e.Op {
		case Deposit:
			bal += e.Amount
		case Withdraw:
			if n.voided[key{node: e.Node, seq: e.Seq}] {
				continue
			}
			bal -= e.Amount
		case Fine:
			bal -= e.Amount
		case Void:
			// marker only
		}
	}
	return bal
}

// detectOverdrafts replays the merged history and assesses a fine for
// every withdrawal that (in the merged order) drove the balance
// negative and has no fine yet — from this node's point of view. Two
// partitioned nodes may both discover the same overdraft after a heal
// and both assess fines before seeing each other's: the duplicate-fine
// anomaly the paper's Section 1 example ends in.
func (n *lmNode) detectOverdrafts(acct string) {
	bal := int64(0)
	for _, e := range n.history(acct) {
		switch e.Op {
		case Deposit:
			bal += e.Amount
			continue
		case Withdraw:
			if n.voided[key{node: e.Node, seq: e.Seq}] {
				continue
			}
			bal -= e.Amount
		case Fine:
			bal -= e.Amount
		case Void:
			continue
		}
		if e.Op != Withdraw || bal >= 0 {
			continue
		}
		k := key{node: e.Node, seq: e.Seq}
		if n.lm.Policy == BackoutPolicy {
			if n.voided[k] {
				continue
			}
			n.voided[k] = true
			bal += e.Amount // undone in the replay too
			n.lm.Backouts++
			n.lm.stats.CorrectiveActions.Add(1)
			n.nextSeq++
			n.bcast.Send(Entry{
				Node: n.id, Seq: n.nextSeq, Stamp: n.lm.sched.Now(),
				Op: Void, Acct: acct, RefNode: e.Node, RefSeq: e.Seq,
			})
			continue
		}
		if n.fined[k] {
			continue
		}
		n.fined[k] = true
		n.lm.stats.CorrectiveActions.Add(1)
		n.nextSeq++
		fine := Entry{
			Node: n.id, Seq: n.nextSeq, Stamp: n.lm.sched.Now(),
			Op: Fine, Acct: acct, Amount: n.lm.FineAmount,
			RefNode: e.Node, RefSeq: e.Seq,
		}
		n.bcast.Send(fine)
	}
}

// Overdrafts counts, from node 0's merged history, the withdrawals
// (voided or not) that drove an account negative (call after
// convergence).
func (lm *LogMerge) Overdrafts(acct string) int {
	n := lm.nodes[0]
	bal := int64(0)
	count := 0
	for _, e := range n.history(acct) {
		switch e.Op {
		case Deposit:
			bal += e.Amount
		case Withdraw, Fine:
			bal -= e.Amount
			if e.Op == Withdraw && bal < 0 {
				count++
			}
		}
	}
	return count
}

// DuplicateFines counts overdrafts that were fined more than once (the
// decentralized-corrective-action anomaly). Call after convergence.
func (lm *LogMerge) DuplicateFines(acct string) int {
	n := lm.nodes[0]
	perRef := make(map[key]int)
	for _, e := range n.history(acct) {
		if e.Op == Fine {
			perRef[key{node: e.RefNode, seq: e.RefSeq}]++
		}
	}
	dups := 0
	for _, c := range perRef {
		if c > 1 {
			dups += c - 1
		}
	}
	return dups
}

// LogEntries reports how many log entries node holds (reconciliation
// state size).
func (lm *LogMerge) LogEntries(node netsim.NodeID) int {
	return len(lm.nodes[node].entries)
}

// Converged reports whether all nodes hold identical entry sets.
func (lm *LogMerge) Converged() bool {
	base := lm.nodes[0].entries
	for _, n := range lm.nodes[1:] {
		if len(n.entries) != len(base) {
			return false
		}
		for k := range base {
			if _, ok := n.entries[k]; !ok {
				return false
			}
		}
	}
	return true
}
