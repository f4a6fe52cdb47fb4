package core

import (
	"errors"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

func TestControlOptionStrings(t *testing.T) {
	if ReadLocks.String() != "read-locks" ||
		AcyclicReads.String() != "acyclic-reads" ||
		UnrestrictedReads.String() != "unrestricted" {
		t.Error("option names wrong")
	}
	if ControlOption(9).String() == "" {
		t.Error("unknown option has empty name")
	}
}

func TestClusterAccessors(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	if cl.RAG() == nil || cl.Net() == nil {
		t.Error("nil accessors")
	}
	if cl.Config().N != 3 {
		t.Error("Config wrong")
	}
	if cl.Node(1).ID() != 1 {
		t.Error("Node.ID wrong")
	}
	if cl.Node(0).Broadcaster() == nil {
		t.Error("Broadcaster nil")
	}
	cl.RunUntil(cl.Now().Add(10 * time.Millisecond))
	if cl.Now() < 10*1e6 {
		t.Error("RunUntil did not advance")
	}
}

func TestTxAccessorsAndReadInt(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	var id txn.ID
	var node netsim.NodeID
	var badType error
	submitSync(cl, 1, TxnSpec{
		Agent: "node:1", Fragment: "F1",
		Program: func(tx *Tx) error {
			id = tx.ID()
			node = tx.Node()
			if err := tx.Write("F1/a", "not-an-int"); err != nil {
				return err
			}
			_, badType = tx.ReadInt("F1/a")
			// Put back an integer so mutual consistency of types holds.
			return tx.Write("F1/a", int64(0))
		},
	})
	cl.Settle(10 * time.Second)
	if id.Origin != 1 || node != 1 {
		t.Errorf("Tx accessors: id=%v node=%v", id, node)
	}
	if badType == nil {
		t.Error("ReadInt accepted a string value")
	}
}

// TestCommutativeFragmentInCore drives SetCommutative directly (the
// bank covers it indirectly): two agents' entries race across a
// partition and both survive, whatever the arrival order.
func TestCommutativeFragmentInCore(t *testing.T) {
	cl := NewCluster(Config{N: 3, Option: UnrestrictedReads, Seed: 41})
	cl.Catalog().AddFragment("LOG")
	cl.Tokens().Assign("LOG", "user:w", 0)
	cl.SetCommutative("LOG")
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	if !cl.IsCommutative("LOG") {
		t.Fatal("IsCommutative false")
	}
	var applied []txn.Quasi
	cl.OnQuasiApplied(func(node netsim.NodeID, q txn.Quasi) {
		if node == 2 {
			applied = append(applied, q)
		}
	})
	write := func(node netsim.NodeID, obj fragments.ObjectID) {
		cl.Node(node).Submit(TxnSpec{
			Agent: "user:w", Fragment: "LOG",
			Program: func(tx *Tx) error { return tx.Write(obj, int64(1)) },
		}, nil)
	}
	// Entry at node 0; move the agent with a bare token transfer; entry
	// at node 1; the isolated node 2 receives them in EITHER order.
	cl.Net().Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	write(0, "log/e1")
	cl.RunFor(100 * time.Millisecond)
	cl.Tokens().MoveAgent("user:w", 1)
	write(1, "log/e2")
	cl.RunFor(100 * time.Millisecond)
	cl.Net().Heal()
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	if v, _ := cl.Node(2).Store().Get("log/e1"); v != int64(1) {
		t.Error("e1 missing at node 2")
	}
	if v, _ := cl.Node(2).Store().Get("log/e2"); v != int64(1) {
		t.Error("e2 missing at node 2")
	}
	if len(applied) != 2 {
		t.Errorf("OnQuasiApplied at node 2 fired %d times, want 2", len(applied))
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// TestRemoteLockDenyOnServerDeadlock drives the handleLockDeny path: a
// remote reader's second lock request would close a deadlock cycle at
// the serving node, so the server refuses and the reader aborts.
func TestRemoteLockDenyOnServerDeadlock(t *testing.T) {
	cl := NewCluster(Config{N: 2, Option: ReadLocks, Seed: 43})
	cl.Catalog().AddFragment("F0", "F0/x")
	cl.Catalog().AddFragment("F1", "F1/a", "F1/b")
	cl.Tokens().Assign("F0", "node:0", 0)
	cl.Tokens().Assign("F1", "node:1", 1)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	for _, o := range []fragments.ObjectID{"F0/x", "F1/a", "F1/b"} {
		cl.Load(o, int64(0))
	}
	defer cl.Shutdown()

	// T0 at node 0: remote-reads F1/b (S at node 1), thinks, then
	// remote-reads F1/a.
	var readErr error
	var res TxnResult
	cl.Node(0).Submit(TxnSpec{
		Agent: "node:0", Fragment: "F0", Label: "T0", Timeout: time.Hour,
		Program: func(tx *Tx) error {
			if _, err := tx.Read("F1/b"); err != nil {
				return err
			}
			tx.Think(100 * time.Millisecond)
			_, readErr = tx.Read("F1/a")
			if readErr != nil {
				return readErr
			}
			return tx.Write("F0/x", int64(1))
		},
	}, func(r TxnResult) { res = r })

	// T1 at node 1 (F1's agent): takes X(F1/a), then upgrades F1/b —
	// blocked behind T0's remote S.
	cl.Sched().After(30*time.Millisecond, func() {
		cl.Node(1).Submit(TxnSpec{
			Agent: "node:1", Fragment: "F1", Label: "T1", Timeout: time.Hour,
			Program: func(tx *Tx) error {
				if err := tx.Write("F1/a", int64(2)); err != nil {
					return err
				}
				if _, err := tx.Read("F1/b"); err != nil {
					return err
				}
				return tx.Write("F1/b", int64(2))
			},
		}, nil)
	})
	cl.Settle(60 * time.Second)
	// The deny is logged as the second read's answer: the rerun after it
	// sees ErrRemoteDenied there, and the transaction aborts with it.
	if !errors.Is(readErr, ErrRemoteDenied) {
		t.Errorf("readErr = %v, want ErrRemoteDenied", readErr)
	}
	if res.Committed || !errors.Is(res.Err, ErrRemoteDenied) {
		t.Errorf("deadlocked remote reader: %+v, want aborted with ErrRemoteDenied", res)
	}
	// T1 proceeded once the denial released T0's remote locks.
	if v, _ := cl.Node(0).Store().Get("F1/b"); v != int64(2) {
		t.Errorf("F1/b = %v, want T1's 2", v)
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// TestQueryStreamPosDirect covers the position-query protocol outside
// the movement wrappers.
func TestQueryStreamPosDirect(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error { return tx.Write("F0/a", int64(1)) },
	})
	cl.Settle(10 * time.Second)
	got := map[netsim.NodeID]txn.FragPos{}
	id := cl.Node(1).QueryStreamPos("F0", func(from netsim.NodeID, pos txn.FragPos) {
		got[from] = pos
	})
	cl.RunFor(time.Second)
	cl.Node(1).EndQuery(id)
	if len(got) != 2 {
		t.Fatalf("replies = %v", got)
	}
	if got[0].Seq != 1 || got[2].Seq != 1 {
		t.Errorf("positions = %v", got)
	}
}
