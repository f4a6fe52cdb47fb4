package deploy

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	"fragdb/internal/workload"
)

// clusterOutcome is what a 3-node deployment run produces: committed
// operation counts and the converged state every replica agreed on.
type clusterOutcome struct {
	commits     int64
	deposits    int64
	withdrawals int64
	counter     int64
	queue       int
	balances    int64
}

// listen binds n loopback TCP listeners on free ports.
func listen(t testing.TB, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// sendTap counts, by Go type, the payloads a node hands its transport
// for another node: evidence of which messages crossed the wire.
type sendTap struct {
	netsim.Transport
	mu   sync.Mutex
	sent map[string]int
}

func (s *sendTap) Send(from, to netsim.NodeID, payload any) {
	if from != to {
		s.mu.Lock()
		s.sent[reflect.TypeOf(payload).String()]++ // %T, without Sprintf's allocations
		s.mu.Unlock()
	}
	s.Transport.Send(from, to, payload)
}

// tcpCluster assembles n deployment nodes over real TCP sockets with a
// sendTap in front of each transport, applying tune (if any) to every
// engine configuration, and registers cleanup.
func tcpCluster(t testing.TB, n int, option string, tune func(*core.Config)) ([]*Node, []*sendTap) {
	t.Helper()
	lns, addrs := listen(t, n)
	nodes := make([]*Node, n)
	taps := make([]*sendTap, n)
	for i := 0; i < n; i++ {
		tcp, err := rtnet.NewTCP(rtnet.TCPConfig{Local: netsim.NodeID(i), Addrs: addrs, Listener: lns[i]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		taps[i] = &sendTap{Transport: tcp, sent: make(map[string]int)}
		nd, err := build(Config{ID: i, Addrs: addrs, Option: option, Accounts: n, Seed: int64(i + 1)}, taps[i], tune)
		if err != nil {
			tcp.Close()
			t.Fatalf("node %d: %v", i, err)
		}
		nd.TCP = tcp
		nodes[i] = nd
		t.Cleanup(nd.Close)
	}
	return nodes, taps
}

// drive runs the workload against nodes and waits for every replica to
// converge. With remoteBump each node's bumps go to its successor's
// counter, so they execute at another node.
func drive(t *testing.T, kind string, nodes []*Node, remoteBump bool) clusterOutcome {
	t.Helper()
	n := len(nodes)
	const rounds = 8

	var wg sync.WaitGroup
	var commits, deposits, withdrawals, bumps, enqueues atomic.Int64
	track := func(kindCommits *atomic.Int64, amt int64) func(core.TxnResult) {
		wg.Add(1)
		return func(r core.TxnResult) {
			defer wg.Done()
			if r.Committed {
				commits.Add(1)
				kindCommits.Add(amt)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			nd := nodes[i]
			acct := workload.LiveAccount(i)
			bump := Op{Kind: "bump", Amount: 1}
			if remoteBump {
				next := (i + 1) % n
				bump.Counter = &next
			}
			ops := []struct {
				op   Op
				done func(core.TxnResult)
			}{
				{Op{Kind: "deposit", Account: acct, Amount: 50}, track(&deposits, 50)},
				{Op{Kind: "withdraw", Account: acct, Amount: 30}, track(&withdrawals, 30)},
				{bump, track(&bumps, 1)},
				{Op{Kind: "enqueue", Item: fmt.Sprintf("it-%d-%d", round, i)}, track(&enqueues, 1)},
			}
			for _, o := range ops {
				if err := nd.Do(o.op, o.done); err != nil {
					t.Fatalf("node %d %s: %v", i, o.op.Kind, err)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: operations did not finish in 30s", kind)
	}

	// Poll until every replica has converged: the commutative totals
	// match the committed operation counts and the money adds up at
	// every node.
	wantBalances := int64(n)*1000 + deposits.Load() - withdrawals.Load()
	deadline := time.Now().Add(30 * time.Second)
	var lastErr string
	for {
		converged := true
		lastErr = ""
		for i := 0; i < n; i++ {
			nd := nodes[i]
			local := netsim.NodeID(nd.Cfg.ID)
			var ctr, total int64
			var q int
			if err := nd.Inspect(func() {
				ctr = nd.Live.CounterTotal(local)
				q = nd.Live.QueueLen(local)
				for a := 0; a < n; a++ {
					total += nd.Live.Balance(local, workload.LiveAccount(a))
				}
			}); err != nil {
				t.Fatal(err)
			}
			if ctr != bumps.Load() || q != int(enqueues.Load()) || total != wantBalances {
				converged = false
				lastErr = fmt.Sprintf("node %d: counter %d/%d queue %d/%d balances %d/%d",
					i, ctr, bumps.Load(), q, enqueues.Load(), total, wantBalances)
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: replicas did not converge: %s", kind, lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// With no faults and no overdrafts every submitted operation must
	// commit — 4 ops per node per round.
	if want := int64(rounds * n * 4); commits.Load() != want {
		t.Fatalf("%s: %d/%d operations committed", kind, commits.Load(), want)
	}
	return clusterOutcome{
		commits:     commits.Load(),
		deposits:    deposits.Load(),
		withdrawals: withdrawals.Load(),
		counter:     bumps.Load(),
		queue:       int(enqueues.Load()),
		balances:    wantBalances,
	}
}

// TestLoopbackTCPEquivalence runs a 3-node bank/counter/queue
// workload over TCP sockets on the loopback interface (codec frames,
// reconnecting peers, loop-threaded delivery) and demands the outcome
// equal the one the workload fixes in advance: with no faults and no
// overdrafts every operation commits, so the counts, the converged
// totals and the money are known before the run.
func TestLoopbackTCPEquivalence(t *testing.T) {
	const n, rounds = 3, 8
	lns, addrs := listen(t, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := NewTCP(Config{ID: i, Addrs: addrs, Accounts: n, Seed: int64(i + 1), Listener: lns[i]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(nd.Close)
	}
	got := drive(t, "tcp", nodes, false)
	ops := int64(rounds * n)
	want := clusterOutcome{
		commits:     4 * ops,
		deposits:    50 * ops,
		withdrawals: 30 * ops,
		counter:     ops,
		queue:       int(ops),
		balances:    n*1000 + 50*ops - 30*ops,
	}
	if got != want {
		t.Fatalf("outcome over TCP:\n got  %+v\n want %+v", got, want)
	}
}

// TestReadLocksRemoteOverTCP puts the blocking-path messages on real
// sockets: under the read-locks option a withdrawal away from the
// central office takes a remote read lock on its balance (request,
// grant, release), and every bump is aimed at the successor's counter,
// so it is forwarded there and answered. All of it must commit and
// converge, the five message types must be seen leaving for another
// node, and no frame may fail to encode or decode.
func TestReadLocksRemoteOverTCP(t *testing.T) {
	nodes, taps := tcpCluster(t, 3, "read-locks", nil)
	out := drive(t, "tcp/read-locks", nodes, true)
	if out.counter != 8*3 {
		t.Fatalf("forwarded bumps committed: %d, want %d", out.counter, 8*3)
	}
	sent := make(map[string]int)
	for _, tap := range taps {
		tap.mu.Lock()
		for typ, c := range tap.sent {
			sent[typ] += c
		}
		tap.mu.Unlock()
	}
	for _, typ := range []string{
		"core.lockReqMsg", "core.lockGrantMsg", "core.lockReleaseMsg",
		"workload.liveOpMsg", "workload.liveOpReplyMsg",
	} {
		if sent[typ] == 0 {
			t.Errorf("no %s crossed the transport; sent: %v", typ, sent)
		}
	}
	for i, nd := range nodes {
		st := nd.TCP.Stats()
		if s, r := st.SendDropped.Load(), st.RecvDropped.Load(); s != 0 || r != 0 {
			t.Errorf("node %d: %d sends and %d receives dropped (a payload failed to encode or decode)", i, s, r)
		}
	}
}

// TestSnapshotOfferInstallsAcrossTCP: node 2 is cut off while the
// others commit and compact their broadcast logs past its prefix, so
// after the heal it cannot be repaired entry by entry: a peer sends a
// SnapshotOffer whose state is a core.nodeSnap, which has to survive
// the codec for node 2 to install it and converge. Deposits at the
// central office during the cut make it record their entries in
// RECORDED(A00): objects created in an ordered fragment, which node 2
// can only learn of from the snapshot, and must.
func TestSnapshotOfferInstallsAcrossTCP(t *testing.T) {
	const n = 3
	nodes, taps := tcpCluster(t, n, "", func(c *core.Config) {
		c.Compaction = true
		c.CompactRetain = 2
		c.PeerLiveRounds = 2
		c.GossipInterval = 5 * time.Millisecond
	})
	for i := 0; i < 2; i++ {
		if err := nodes[i].SetPeerDrop(2, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[2].SetPeerDrop(0, true); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].SetPeerDrop(1, true); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	const deposits, amount = 5, 20
	acct := workload.LiveAccount(0)
	wantBalance := int64(1000 + deposits*amount)
	var wg sync.WaitGroup
	for k := 0; k < deposits; k++ {
		wg.Add(1)
		if err := nodes[0].Do(Op{Kind: "deposit", Account: acct, Amount: amount}, func(r core.TxnResult) {
			defer wg.Done()
			if !r.Committed {
				t.Errorf("deposit: %+v", r)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// recorded reports whether node i holds the balance with every
	// deposit recorded.
	recorded := func(i int) bool {
		var balance int64
		var entries, unrecorded int
		if err := nodes[i].Inspect(func() {
			balance = nodes[i].Live.Balance(netsim.NodeID(i), acct)
			entries = len(nodes[i].Live.Cluster().Node(netsim.NodeID(i)).Store().Objects(
				fragments.FragmentID("ACTIVITY(" + acct + ")")))
			unrecorded = len(nodes[i].Live.Unrecorded(netsim.NodeID(i), acct))
		}); err != nil {
			t.Fatal(err)
		}
		return balance == wantBalance && entries == deposits && unrecorded == 0
	}
	waitFor("the office to record the deposits", func() bool { return recorded(0) })

	const bumps = 40
	var committed atomic.Int64
	for k := 0; k < bumps; k++ {
		wg.Add(1)
		if err := nodes[k%2].Do(Op{Kind: "bump", Amount: 1}, func(r core.TxnResult) {
			defer wg.Done()
			if r.Committed {
				committed.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if committed.Load() != bumps {
		t.Fatalf("%d/%d bumps committed on the connected side", committed.Load(), bumps)
	}
	waitFor("the connected side to compact its logs", func() bool {
		return nodes[0].Live.Cluster().BroadcastStats().CompactedSeqs.Load() > 0 &&
			nodes[1].Live.Cluster().BroadcastStats().CompactedSeqs.Load() > 0
	})

	for i := 0; i < 2; i++ {
		nodes[i].SetPeerDrop(2, false)
		nodes[2].SetPeerDrop(i, false)
	}
	waitFor("node 2 to install a snapshot", func() bool {
		return nodes[2].Live.Cluster().BroadcastStats().SnapshotsInstalled.Load() > 0
	})
	waitFor("node 2 to converge on the counter total", func() bool {
		var total int64
		if err := nodes[2].Inspect(func() { total = nodes[2].Live.CounterTotal(2) }); err != nil {
			t.Fatal(err)
		}
		return total == bumps
	})
	waitFor("node 2 to hold the recorded balance and every RECORDED mark", func() bool { return recorded(2) })
	offers := 0
	for _, tap := range taps[:2] {
		tap.mu.Lock()
		offers += tap.sent["broadcast.SnapshotOffer"]
		tap.mu.Unlock()
	}
	if offers == 0 {
		t.Error("node 2 installed a snapshot but no SnapshotOffer left nodes 0 or 1")
	}
}

// mixedOp is operation k of node i's share of a read-locks load: bumps
// forwarded to the successor's counter, local enqueues and deposits,
// and withdrawals that take a remote read lock at the central office.
func mixedOp(i, k, n int) Op {
	next := (i + 1) % n
	switch k % 10 {
	case 0, 1:
		return Op{Kind: "bump", Amount: 1, Counter: &next}
	case 2:
		return Op{Kind: "enqueue", Item: fmt.Sprintf("it-%d-%d", i, k)}
	case 3, 4, 5, 6:
		return Op{Kind: "deposit", Account: workload.LiveAccount(i), Amount: 50}
	default:
		return Op{Kind: "withdraw", Account: workload.LiveAccount(i), Amount: 30}
	}
}

// closedLoop submits perNode operations op(i, k, len(nodes)) at each
// node, keeping inFlight of them outstanding per node, and waits for
// all of them. It returns how many did not commit and how many
// committed bumps there were.
func closedLoop(t testing.TB, nodes []*Node, perNode, inFlight int, op func(i, k, n int) Op) (failed, bumps int64) {
	t.Helper()
	var nFailed, nBumps atomic.Int64
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := nodes[i]
			slots := make(chan struct{}, inFlight)
			for k := 0; k < perNode; k++ {
				o := op(i, k, len(nodes))
				isBump := o.Kind == "bump"
				slots <- struct{}{}
				if err := nd.Do(o, func(r core.TxnResult) {
					if !r.Committed {
						nFailed.Add(1)
					} else if isBump {
						nBumps.Add(1)
					}
					<-slots
				}); err != nil {
					t.Errorf("node %d: %v", i, err)
					<-slots
					return
				}
			}
			for k := 0; k < cap(slots); k++ { // wait for the tail
				slots <- struct{}{}
			}
		}(i)
	}
	wg.Wait()
	return nFailed.Load(), nBumps.Load()
}

// quiesce waits until every replica has the counter total bumps and,
// with released, the last remote read lock's release has arrived
// everywhere.
func quiesce(t testing.TB, nodes []*Node, bumps int64, released bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for i, nd := range nodes {
		local := nd.Live.Cluster().Node(netsim.NodeID(i))
		for {
			var total int64
			if err := nd.Inspect(func() { total = nd.Live.CounterTotal(netsim.NodeID(i)) }); err != nil {
				t.Fatal(err)
			}
			if total == bumps && (!released || local.LockTableEntries() == 0) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d: counter %d/%d, %d lock table entries after quiescing",
					i, total, bumps, local.LockTableEntries())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestDeployedNodeDropsOnlyByRule: three nodes over loopback TCP run the
// read-locks load at 16 operations in flight per node, on a node whose
// operations cost only the work they do. Nothing may fail or time out,
// and no send may be lost to a full queue — neither broadcast data nor
// the lock requests, grants, releases and forwarded operations nothing
// would re-send. Then node 0 is cut off and healed while the others
// keep committing: afterwards the drop rule is the only cause of
// dropped sends.
func TestDeployedNodeDropsOnlyByRule(t *testing.T) {
	const n = 3
	perNode := 12000 / n
	if testing.Short() {
		perNode = 1200 / n
	}
	nodes, _ := tcpCluster(t, n, "read-locks", nil)
	checkDrops := func(phase string, wantRule bool) {
		t.Helper()
		var rule uint64
		for i, nd := range nodes {
			for _, d := range nd.TCP.Stats().SendDrops() {
				if d.Cause == "drop_rule" {
					rule += d.N
				} else if d.N != 0 {
					t.Errorf("%s: node %d dropped %d sends for %s", phase, i, d.N, d.Cause)
				}
			}
		}
		if (rule != 0) != wantRule {
			t.Errorf("%s: %d sends dropped by the drop rule", phase, rule)
		}
	}

	failed, bumps := closedLoop(t, nodes, perNode, 16, mixedOp)
	if failed != 0 {
		t.Fatalf("%d of %d operations did not commit", failed, n*perNode)
	}
	quiesce(t, nodes, bumps, true)
	checkDrops("under load", false)
	for i, nd := range nodes {
		if to := nd.Live.Cluster().Stats().TimedOut.Load(); to != 0 {
			t.Errorf("node %d timed out %d transactions under load", i, to)
		}
	}

	// The cut: node 0 is the central office, so during it every node runs
	// only operations that need no other node — own-counter bumps,
	// enqueues, deposits. (The office's own folds of the other nodes'
	// activity wait for remote read locks and may time out: that is the
	// read-locks option's price for a partition, not a lost message. A
	// grant the cut swallowed is reclaimed by its lease, not a release,
	// so the final wait does not ask for empty lock tables.)
	cut := func(on bool) {
		for peer := 1; peer < n; peer++ {
			if err := nodes[0].SetPeerDrop(peer, on); err != nil {
				t.Fatal(err)
			}
			if err := nodes[peer].SetPeerDrop(0, on); err != nil {
				t.Fatal(err)
			}
		}
	}
	cut(true)
	local := func(i, k, n int) Op {
		switch k % 3 {
		case 0:
			return Op{Kind: "bump", Amount: 1}
		case 1:
			return Op{Kind: "enqueue", Item: fmt.Sprintf("cut-%d-%d", i, k)}
		default:
			return Op{Kind: "deposit", Account: workload.LiveAccount(i), Amount: 5}
		}
	}
	failed, cutBumps := closedLoop(t, nodes, perNode/4, 16, local)
	if failed != 0 {
		t.Fatalf("%d operations did not commit during the cut", failed)
	}
	cut(false)
	quiesce(t, nodes, bumps+cutBumps, false)
	checkDrops("after cut and heal", true)
}

// TestDeployedNodeRetainsOnlyItsData pins what a node in production
// shape keeps per commit. Three nodes over loopback TCP run a mixed
// read-locks load (remote read locks, forwarded bumps, local commits
// and the replica applies they cause); afterwards each node's lock
// table is empty, its history recorder is inert, its store has numbered
// every install and retained none of them — and the things that should
// have grown, did. Structural counts, not byte thresholds.
func TestDeployedNodeRetainsOnlyItsData(t *testing.T) {
	const n = 3
	perNode := 20000 / n
	if testing.Short() {
		perNode = 2000 / n
	}
	nodes, _ := tcpCluster(t, n, "read-locks", nil)
	objectsBefore := make([]int, n)
	for i, nd := range nodes {
		objectsBefore[i] = nd.Live.Cluster().Node(netsim.NodeID(i)).Store().Len()
	}

	failed, bumps := closedLoop(t, nodes, perNode, 8, mixedOp)
	if failed != 0 {
		t.Fatalf("%d of %d operations did not commit", failed, n*perNode)
	}
	quiesce(t, nodes, bumps, true)

	for i, nd := range nodes {
		cl := nd.Live.Cluster()
		local := cl.Node(netsim.NodeID(i))
		if rec := cl.Recorder(); rec != nil || rec.Len() != 0 {
			t.Errorf("node %d: a single-node process built a history recorder (%d records)", i, rec.Len())
		}
		var lsn uint64
		var logged, objects int
		if err := nd.Inspect(func() {
			lsn = local.Store().LSN()
			logged = len(local.Store().Log())
			objects = local.Store().Len()
		}); err != nil {
			t.Fatal(err)
		}
		if logged != 0 {
			t.Errorf("node %d: store retained %d log records", i, logged)
		}
		if lsn < uint64(n*perNode) {
			t.Errorf("node %d: %d installs numbered, want at least the %d commits", i, lsn, n*perNode)
		}
		if objects <= objectsBefore[i] {
			t.Errorf("node %d: store has %d objects, had %d before the load", i, objects, objectsBefore[i])
		}
	}
}

// TestDeployedNodeTracesOnlyItself: a deployed process runs one engine,
// so it keeps one flight-recorder ring — its own. The peers' entries
// are nil rather than rings nothing in this process writes.
func TestDeployedNodeTracesOnlyItself(t *testing.T) {
	nodes, _ := tcpCluster(t, 3, "read-locks", nil)
	for i, nd := range nodes {
		tracers := nd.DebugVars().Tracers
		if len(tracers) != len(nodes) {
			t.Fatalf("node %d: %d tracer slots, want one per cluster member (%d)", i, len(tracers), len(nodes))
		}
		for j, tr := range tracers {
			if got, want := tr.Enabled(), j == i; got != want {
				t.Errorf("node %d: recorder for node %d enabled = %v, want %v", i, j, got, want)
			}
		}
		if tr := tracers[i]; tr.Node() != netsim.NodeID(i) {
			t.Errorf("node %d: local recorder is labeled node %d", i, tr.Node())
		}
	}
}

// TestDeployedNodeIndexesCreatedObjectsInItsStore: every operation of
// the live workload creates an object, and a deployed node indexes it
// in its store only. Over a thousand commits the catalog keeps its
// declared objects while the stores grow; Fragment.Objects lists
// exactly a fragment's stored entries; the initiation requirement
// still refuses another fragment's write to a created object, at its
// home and at a replica; and an aborted transaction's new object is
// listed nowhere.
func TestDeployedNodeIndexesCreatedObjectsInItsStore(t *testing.T) {
	const n, perNode = 3, 334
	nodes, _ := tcpCluster(t, n, "", nil)
	inspect := func(nd *Node, fn func(cl *core.Cluster)) {
		t.Helper()
		if err := nd.Inspect(func() { fn(nd.Live.Cluster()) }); err != nil {
			t.Fatal(err)
		}
	}
	cataloged := make([]int, n)
	stored := make([]int, n)
	for i, nd := range nodes {
		inspect(nd, func(cl *core.Cluster) {
			cataloged[i], stored[i] = cl.Catalog().NumObjects(), cl.Node(netsim.NodeID(i)).Store().Len()
		})
	}

	// Own-counter bumps, enqueues and deposits of 7: every one commits
	// at its node and creates one entry there.
	op := func(i, k, n int) Op {
		switch k % 3 {
		case 0:
			return Op{Kind: "bump", Amount: 1}
		case 1:
			return Op{Kind: "enqueue", Item: fmt.Sprintf("it-%d-%d", i, k)}
		default:
			return Op{Kind: "deposit", Account: workload.LiveAccount(i), Amount: 7}
		}
	}
	failed, bumps := closedLoop(t, nodes, perNode, 8, op)
	if failed != 0 {
		t.Fatalf("%d of %d operations did not commit", failed, n*perNode)
	}
	quiesce(t, nodes, bumps, false)
	deposits := (perNode + 1) / 3 // k%3 == 2 for k < perNode
	for i, nd := range nodes {
		inspect(nd, func(cl *core.Cluster) {
			if got := cl.Catalog().NumObjects(); got != cataloged[i] {
				t.Errorf("node %d: catalog went from %d to %d objects over %d commits", i, cataloged[i], got, n*perNode)
			}
			if got := cl.Node(netsim.NodeID(i)).Store().Len(); got < stored[i]+n*perNode {
				t.Errorf("node %d: store went from %d to %d objects, want %d more", i, stored[i], got, n*perNode)
			}
			// What fragbench's replica check sums: each account's
			// ACTIVITY entries through Fragment.Objects.
			store := cl.Node(netsim.NodeID(i)).Store()
			for a := 0; a < n; a++ {
				id := fragments.FragmentID("ACTIVITY(" + workload.LiveAccount(a) + ")")
				frag, _ := cl.Catalog().Fragment(id)
				objs := frag.Objects()
				if want := store.Objects(id); !slices.Equal(objs, want) {
					t.Errorf("node %d: %s.Objects() = %d objects, store holds %d", i, id, len(objs), len(want))
				}
				var sum int64
				for _, o := range objs {
					v, _ := store.Get(o)
					sum += v.(int64)
				}
				if len(objs) != deposits || sum != int64(7*deposits) {
					t.Errorf("node %d: %s lists %d entries summing to %d, want %d summing to %d",
						i, id, len(objs), sum, deposits, 7*deposits)
				}
			}
		})
	}

	// submit runs one transaction at node i and waits for its result.
	submit := func(i int, spec core.TxnSpec) core.TxnResult {
		t.Helper()
		res := make(chan core.TxnResult, 1)
		inspect(nodes[i], func(cl *core.Cluster) {
			cl.Node(netsim.NodeID(i)).Submit(spec, func(r core.TxnResult) { res <- r })
		})
		select {
		case r := <-res:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d: %s did not finish", i, spec.Label)
			return core.TxnResult{}
		}
	}
	var entry fragments.ObjectID
	inspect(nodes[0], func(cl *core.Cluster) { entry = cl.Node(0).Store().Objects("CTR(0)")[0] })
	for i := 0; i < 2; i++ { // node 0 is CTR(0)'s home, node 1 a replica
		queue := fmt.Sprintf("QUEUE(%d)", i)
		r := submit(i, core.TxnSpec{
			Agent: fragments.AgentID(fmt.Sprintf("q:%d", i)), Fragment: fragments.FragmentID(queue),
			Label:   "cross-fragment write",
			Program: func(tx *core.Tx) error { return tx.Write(entry, int64(100)) },
		})
		if r.Committed || r.Err == nil || !strings.Contains(r.Err.Error(), "initiation requirement") {
			t.Errorf("node %d: %s's write to %s = %+v, want the initiation error", i, queue, entry, r)
		}
	}

	const orphan = fragments.ObjectID("QUEUE(0):aborted")
	errAbort := errors.New("abort after writing")
	r := submit(0, core.TxnSpec{
		Agent: "q:0", Fragment: "QUEUE(0)", Label: "aborted creation",
		Program: func(tx *core.Tx) error {
			if err := tx.Write(orphan, "x"); err != nil {
				return err
			}
			return errAbort
		},
	})
	if r.Committed || !errors.Is(r.Err, errAbort) {
		t.Fatalf("aborted creation = %+v", r)
	}
	for i, nd := range nodes {
		inspect(nd, func(cl *core.Cluster) {
			for _, id := range cl.Catalog().Fragments() {
				frag, _ := cl.Catalog().Fragment(id)
				if slices.Contains(frag.Objects(), orphan) {
					t.Errorf("node %d: %s lists the aborted transaction's object", i, id)
				}
			}
		})
	}
}

// TestRestartedNodeRelinksAtOnce: node 2 of three deployed nodes goes
// down and comes back as a fresh, empty process on the same address,
// while both survivors sit in a dial backoff that puts their next blind
// retry 800 ms away. The restarted node's handshakes wake their
// dialers, so every link is up within 300 ms, and node 2 catches up
// over the wire on the bumps it missed and the ones from before.
func TestRestartedNodeRelinksAtOnce(t *testing.T) {
	const n = 3
	lns, addrs := listen(t, n)
	start := func(i int, ln net.Listener) (*Node, error) {
		nd, err := NewTCP(Config{ID: i, Addrs: addrs, Accounts: n, Seed: int64(i + 1), Listener: ln})
		if err == nil {
			t.Cleanup(nd.Close)
		}
		return nd, err
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := start(i, lns[i])
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
	}
	linked := func() bool {
		for i, nd := range nodes {
			for j := range nodes {
				if !nd.TCP.Reachable(netsim.NodeID(i), netsim.NodeID(j)) {
					return false
				}
			}
		}
		return true
	}
	waitFor := func(what string, within time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(within)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within %v", what, within)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Only the survivors bump: node 2 restarts numbering its entries and
	// its stream from 1 again, over what it originated before.
	var bumps int64
	bump := func(each int) {
		t.Helper()
		failed, committed := closedLoop(t, nodes[:2], each, 4, func(int, int, int) Op {
			return Op{Kind: "bump", Amount: 1}
		})
		if failed != 0 {
			t.Fatalf("%d of %d bumps did not commit", failed, 2*each)
		}
		bumps += committed
	}
	counter := func(i int) int64 {
		var total int64
		if err := nodes[i].Inspect(func() { total = nodes[i].Live.CounterTotal(netsim.NodeID(i)) }); err != nil {
			t.Fatal(err)
		}
		return total
	}

	waitFor("the cluster to link up", 5*time.Second, linked)
	bump(20)
	nodes[2].Close()
	waitFor("both survivors to back off from node 2", 10*time.Second, func() bool {
		return nodes[0].TCP.Stats().DialErrors.Load() >= 5 && nodes[1].TCP.Stats().DialErrors.Load() >= 5
	})
	bump(20)

	restarted := time.Now()
	var err error
	waitFor("node 2 to rebind its address", 5*time.Second, func() bool {
		nodes[2], err = start(2, nil)
		return err == nil
	})
	waitFor("every link in both directions", 300*time.Millisecond, linked)
	t.Logf("links up %v after the restart", time.Since(restarted))
	waitFor("node 2 to catch up on the counters", 5*time.Second, func() bool {
		return counter(2) == bumps && counter(0) == bumps && counter(1) == bumps
	})
}
