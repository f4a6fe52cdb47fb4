package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
)

// m0sFrom renders every M0 announcement node id has broadcast, one line
// per carried quasi-transaction, in the order it was carried.
func m0sFrom(cl *Cluster, id netsim.NodeID) string {
	var b strings.Builder
	for _, payload := range cl.Node(id).bcast.Log(id) {
		m, ok := payload.(m0Msg)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "M0 %s epoch %d oldLast %d.%d home %d\n",
			m.Fragment, m.NewEpoch, m.OldLast.Epoch, m.OldLast.Seq, m.NewHome)
		for _, q := range m.Installed {
			fmt.Fprintf(&b, "  %d.%d %s %d.%d home %d stamp %d writes %v\n",
				q.Txn.Origin, q.Txn.Seq, q.Fragment, q.Pos.Epoch, q.Pos.Seq,
				q.Home, int64(q.Stamp), q.Writes)
		}
	}
	return b.String()
}

// The prefix an M0 carries (Section 4.4.3: the old-epoch transactions
// installed at the new home) is derived from the store's log. This pins
// it — which quasi-transactions, in which order, with which home — to
// what the engine sent when each stream kept its own applied list: two
// unprepared moves of F, so the second prefix must hold epoch 1 only,
// with a second fragment's commits interleaved in the log and a
// repackaged straggler in the middle of epoch 1.
func TestM0CarriesInstalledPrefixOfTheEndingEpoch(t *testing.T) {
	cl := NewCluster(Config{N: 3, Option: UnrestrictedReads, Seed: 9})
	if err := cl.Catalog().AddFragment("F", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Catalog().AddFragment("G", "g"); err != nil {
		t.Fatal(err)
	}
	cl.Tokens().Assign("F", "user:m", 0)
	cl.Tokens().Assign("G", "user:g", 2)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	for _, o := range []fragments.ObjectID{"x", "y", "g"} {
		cl.Load(o, int64(0))
	}
	f := func(node netsim.NodeID) {
		submitSync(cl, node, TxnSpec{Agent: "user:m", Fragment: "F", Program: inc("x")})
		cl.RunFor(20 * time.Millisecond)
	}
	g := func() {
		submitSync(cl, 2, TxnSpec{Agent: "user:g", Fragment: "G", Program: inc("g")})
		cl.RunFor(20 * time.Millisecond)
	}
	settle := func(what string) {
		t.Helper()
		if !cl.Settle(30 * time.Second) {
			t.Fatalf("did not settle: %s", what)
		}
	}

	// Epoch 0 at node 0, G interleaved.
	f(0)
	g()
	f(0)
	f(0)
	g()
	settle("epoch 0")
	// A straggler nobody sees, then the first unprepared move.
	cl.Net().Partition([]netsim.NodeID{0}, []netsim.NodeID{1, 2})
	submitSync(cl, 0, TxnSpec{Agent: "user:m", Fragment: "F",
		Program: func(tx *Tx) error { return tx.Write("y", int64(99)) }})
	cl.RunFor(200 * time.Millisecond)
	cl.Tokens().MoveAgent("user:m", 1)
	cl.Node(1).BeginNoPrepEpoch("F")
	// Epoch 1 at node 1; the heal brings the straggler in between.
	f(1)
	g()
	cl.Net().Heal()
	settle("heal")
	f(1)
	settle("epoch 1")
	// Second unprepared move, to a node that only ever replicated F.
	cl.Tokens().MoveAgent("user:m", 2)
	cl.Node(2).BeginNoPrepEpoch("F")
	f(2)
	settle("epoch 2")
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Fatal(err)
	}

	got := m0sFrom(cl, 1) + m0sFrom(cl, 2)
	if got != m0Golden {
		t.Errorf("M0 announcements changed.\n got:\n%s\nwant:\n%s", got, m0Golden)
	}
}

// Taken at the commit before appliedLog was deleted.
const m0Golden = `M0 F epoch 1 oldLast 0.3 home 1
  0.1 F 0.1 home 0 stamp 2000000 writes [{x 1}]
  0.2 F 0.2 home 0 stamp 42000000 writes [{x 2}]
  0.3 F 0.3 home 0 stamp 62000000 writes [{x 3}]
M0 F epoch 2 oldLast 1.3 home 2
  1.1 F 1.1 home 1 stamp 402000000 writes [{x 4}]
  1.2 F 1.2 home 1 stamp 470000000 writes [{y 99}]
  1.3 F 1.3 home 1 stamp 542000000 writes [{x 5}]
`
