package core

import (
	"errors"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// bankCluster builds a 3-node cluster with one fragment per node:
// F0 (agent node 0), F1 (agent node 1), F2 (agent node 2), each with
// two objects "fN/a", "fN/b" initialized to int64(0).
func bankCluster(t *testing.T, opt ControlOption) *Cluster {
	t.Helper()
	return populateBank(t, NewCluster(Config{N: 3, Option: opt, Seed: 42}), opt)
}

// populateBank declares the three-fragment schema on a fresh 3-node
// cluster, starts it, and loads the initial data.
func populateBank(t *testing.T, cl *Cluster, opt ControlOption) *Cluster {
	t.Helper()
	for i := 0; i < 3; i++ {
		f := fragments.FragmentID([]string{"F0", "F1", "F2"}[i])
		oa := fragments.ObjectID(string(f) + "/a")
		ob := fragments.ObjectID(string(f) + "/b")
		if err := cl.Catalog().AddFragment(f, oa, ob); err != nil {
			t.Fatal(err)
		}
		cl.Tokens().Assign(f, fragments.NodeAgent(netsim.NodeID(i)), netsim.NodeID(i))
	}
	if opt == AcyclicReads {
		// Star: F0's transactions may read F1 and F2.
		cl.DeclareRead("F0", "F1")
		cl.DeclareRead("F0", "F2")
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f := []string{"F0", "F1", "F2"}[i]
		for _, sfx := range []string{"/a", "/b"} {
			if err := cl.Load(fragments.ObjectID(f+sfx), int64(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cl
}

// submitSync submits and collects the result via callback.
func submitSync(cl *Cluster, node netsim.NodeID, spec TxnSpec) *TxnResult {
	var res TxnResult
	got := false
	cl.Node(node).Submit(spec, func(r TxnResult) { res = r; got = true })
	_ = got
	return &res
}

func TestUpdateCommitsAndPropagates(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0", Label: "inc",
		Program: func(tx *Tx) error {
			v, err := tx.ReadInt("F0/a")
			if err != nil {
				return err
			}
			return tx.Write("F0/a", v+100)
		},
	})
	if !cl.Settle(5 * time.Second) {
		t.Fatal("did not settle")
	}
	if !res.Committed || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
	for i := 0; i < 3; i++ {
		if v, _ := cl.Node(netsim.NodeID(i)).Store().Get("F0/a"); v != int64(100) {
			t.Errorf("node %d sees F0/a = %v", i, v)
		}
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
	if cl.Stats().Committed.Load() != 1 {
		t.Errorf("stats: %v", cl.Stats())
	}
	// The labeled registry is on in every cluster, no Config switch: one
	// commit of F0 at its home and one install at each of the other two.
	f0 := metrics.Label{Frag: "F0", Node: 0}
	if c, a := cl.Registry().Commits.Get(f0), cl.Registry().Applies.Get(f0); c != 1 || a != 2 {
		t.Errorf("registry: F0 commits %d, applies %d; want 1 and 2", c, a)
	}
}

func TestNotAgentRejected(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:1", Fragment: "F0",
		Program: func(tx *Tx) error { return tx.Write("F0/a", int64(1)) },
	})
	cl.Settle(time.Second)
	if !errors.Is(res.Err, ErrNotAgent) {
		t.Errorf("err = %v, want ErrNotAgent", res.Err)
	}
	if cl.Stats().Rejected.Load() != 1 {
		t.Errorf("Rejected = %d", cl.Stats().Rejected.Load())
	}
}

func TestWrongHomeRejected(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// F1's agent lives at node 1; submitting at node 0 must fail.
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:1", Fragment: "F1",
		Program: func(tx *Tx) error { return tx.Write("F1/a", int64(1)) },
	})
	cl.Settle(time.Second)
	if !errors.Is(res.Err, ErrNotHome) {
		t.Errorf("err = %v, want ErrNotHome", res.Err)
	}
}

func TestInitiationRequirementEnforced(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// F0's agent tries to write F1's object: the write itself errors.
	var writeErr error
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			writeErr = tx.Write("F1/a", int64(7))
			return writeErr
		},
	})
	cl.Settle(time.Second)
	if writeErr == nil {
		t.Fatal("cross-fragment write succeeded")
	}
	if res.Committed {
		t.Fatal("transaction with initiation violation committed")
	}
	// The foreign object must be untouched everywhere.
	if v, _ := cl.Node(1).Store().Get("F1/a"); v != int64(0) {
		t.Errorf("F1/a = %v", v)
	}
}

func TestReadOnlyAnywhere(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// Any agent may run a read-only transaction at any node.
	var got int64
	res := submitSync(cl, 2, TxnSpec{
		Agent: "user:alice", Label: "ro",
		Program: func(tx *Tx) error {
			v, err := tx.ReadInt("F0/a")
			got = v
			return err
		},
	})
	cl.Settle(time.Second)
	if !res.Committed || got != 0 {
		t.Fatalf("res=%+v got=%d", res, got)
	}
}

func TestWriteInReadOnlyFails(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	var werr error
	submitSync(cl, 0, TxnSpec{
		Agent: "user:x",
		Program: func(tx *Tx) error {
			werr = tx.Write("F0/a", int64(1))
			return werr
		},
	})
	cl.Settle(time.Second)
	if !errors.Is(werr, ErrReadOnlyTxn) {
		t.Errorf("err = %v", werr)
	}
}

func TestPartitionedUpdatesStillCommitAndConvergeAfterHeal(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	cl.Net().Partition([]netsim.NodeID{0}, []netsim.NodeID{1, 2})
	// Each side updates its own fragment during the partition: full
	// availability for agents at their home nodes.
	r0 := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error { return tx.Write("F0/a", int64(1)) },
	})
	r1 := submitSync(cl, 1, TxnSpec{
		Agent: "node:1", Fragment: "F1",
		Program: func(tx *Tx) error { return tx.Write("F1/a", int64(2)) },
	})
	cl.RunFor(time.Second)
	if !r0.Committed || !r1.Committed {
		t.Fatalf("partitioned commits failed: %+v %+v", r0, r1)
	}
	// Node 2 must not yet see F0's update.
	if v, _ := cl.Node(2).Store().Get("F0/a"); v == int64(1) {
		t.Error("update crossed the partition")
	}
	cl.Net().Heal()
	if !cl.Settle(10 * time.Second) {
		t.Fatal("did not settle after heal")
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
	if v, _ := cl.Node(2).Store().Get("F0/a"); v != int64(1) {
		t.Error("update never arrived after heal")
	}
}

func TestFragmentwiseSerializabilityUnderLoad(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// Every agent repeatedly increments its own objects while reading
	// the others' fragments; run across a partition and heal.
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			node := netsim.NodeID(i)
			f := fragments.FragmentID([]string{"F0", "F1", "F2"}[i])
			oa := fragments.ObjectID(string(f) + "/a")
			other := fragments.ObjectID([]string{"F1/a", "F2/a", "F0/a"}[i])
			at := simtime.Time(time.Duration(round*50+i*7) * time.Millisecond)
			cl.Sched().At(at, func() {
				cl.Node(node).Submit(TxnSpec{
					Agent: fragments.AgentID("node:" + string(rune('0'+node))), Fragment: f,
					Program: func(tx *Tx) error {
						if _, err := tx.Read(other); err != nil {
							return err
						}
						v, err := tx.ReadInt(oa)
						if err != nil {
							return err
						}
						return tx.Write(oa, v+1)
					},
				}, nil)
			})
		}
	}
	cl.Net().ScheduleSplit(simtime.Time(120*time.Millisecond), []netsim.NodeID{0, 1}, []netsim.NodeID{2})
	cl.Net().ScheduleHeal(simtime.Time(400 * time.Millisecond))
	cl.RunFor(time.Second)
	if !cl.Settle(20 * time.Second) {
		t.Fatal("did not settle")
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
	if err := cl.Recorder().CheckFragmentwise(); err != nil {
		t.Errorf("fragmentwise serializability violated: %v", err)
	}
	// All 30 updates committed: full availability despite the partition.
	if got := cl.Stats().Committed.Load(); got != 30 {
		t.Errorf("committed = %d, want 30", got)
	}
	for i := 0; i < 3; i++ {
		f := []string{"F0", "F1", "F2"}[i]
		if v, _ := cl.Node(0).Store().Get(fragments.ObjectID(f + "/a")); v != int64(10) {
			t.Errorf("%s/a = %v, want 10", f, v)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, simtime.Time) {
		cl := bankCluster(t, UnrestrictedReads)
		defer cl.Shutdown()
		for i := 0; i < 20; i++ {
			node := netsim.NodeID(i % 3)
			f := fragments.FragmentID([]string{"F0", "F1", "F2"}[i%3])
			oa := fragments.ObjectID(string(f) + "/a")
			cl.Sched().At(simtime.Time(time.Duration(i)*13*time.Millisecond), func() {
				cl.Node(node).Submit(TxnSpec{
					Agent: fragments.NodeAgent(node), Fragment: f,
					Program: func(tx *Tx) error {
						v, err := tx.ReadInt(oa)
						if err != nil {
							return err
						}
						return tx.Write(oa, v+1)
					},
				}, nil)
			})
		}
		cl.Net().ScheduleSplit(simtime.Time(100*time.Millisecond), []netsim.NodeID{0}, []netsim.NodeID{1, 2})
		cl.Net().ScheduleHeal(simtime.Time(250 * time.Millisecond))
		cl.Settle(5 * time.Second)
		return cl.Stats().Committed.Load(), cl.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", c1, t1, c2, t2)
	}
}

func TestTimeoutAbortsBlockedTxn(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// Txn A holds a write lock on F0/a for a long think; txn B (same
	// fragment, sequential submission) blocks on the lock and times out.
	cl.Node(0).Submit(TxnSpec{
		Agent: "node:0", Fragment: "F0", Label: "holder",
		Program: func(tx *Tx) error {
			if err := tx.Write("F0/a", int64(1)); err != nil {
				return err
			}
			tx.Think(20 * time.Second)
			return nil
		},
		Timeout: time.Hour,
	}, nil)
	var bres TxnResult
	cl.Sched().At(simtime.Time(10*time.Millisecond), func() {
		cl.Node(0).Submit(TxnSpec{
			Agent: "node:0", Fragment: "F0", Label: "blocked",
			Program: func(tx *Tx) error {
				return tx.Write("F0/a", int64(2))
			},
			Timeout: 500 * time.Millisecond,
		}, func(r TxnResult) { bres = r })
	})
	cl.RunFor(30 * time.Second)
	if !errors.Is(bres.Err, ErrTimeout) || bres.Committed {
		t.Errorf("blocked txn result = %+v", bres)
	}
	if cl.Stats().TimedOut.Load() != 1 {
		t.Errorf("TimedOut = %d", cl.Stats().TimedOut.Load())
	}
	cl.Settle(30 * time.Second)
	// The holder eventually commits.
	if v, _ := cl.Node(0).Store().Get("F0/a"); v != int64(1) {
		t.Errorf("F0/a = %v, want holder's 1", v)
	}
}

func TestLocalDeadlockVictim(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	// Two same-fragment transactions acquire a and b in opposite order
	// with thinks in between to force the deadlock.
	var errA, errB error
	cl.Node(0).Submit(TxnSpec{
		Agent: "node:0", Fragment: "F0", Label: "ab",
		Program: func(tx *Tx) error {
			if err := tx.Write("F0/a", int64(1)); err != nil {
				return err
			}
			tx.Think(50 * time.Millisecond)
			errA = tx.Write("F0/b", int64(1))
			return errA
		},
	}, nil)
	cl.Sched().At(simtime.Time(5*time.Millisecond), func() {
		cl.Node(0).Submit(TxnSpec{
			Agent: "node:0", Fragment: "F0", Label: "ba",
			Program: func(tx *Tx) error {
				if err := tx.Write("F0/b", int64(2)); err != nil {
					return err
				}
				tx.Think(50 * time.Millisecond)
				errB = tx.Write("F0/a", int64(2))
				return errB
			},
		}, nil)
	})
	cl.Settle(30 * time.Second)
	// Exactly one of the two must be a deadlock victim.
	aDead := errors.Is(errA, ErrDeadlock)
	bDead := errors.Is(errB, ErrDeadlock)
	if aDead == bDead {
		t.Errorf("deadlock outcome wrong: errA=%v errB=%v", errA, errB)
	}
	if cl.Stats().Deadlocks.Load() == 0 {
		t.Error("Deadlocks counter zero")
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

func TestUnknownObjectRead(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	var rerr error
	submitSync(cl, 0, TxnSpec{
		Agent: "user:x",
		Program: func(tx *Tx) error {
			_, rerr = tx.Read("no-such-object")
			return rerr
		},
	})
	cl.Settle(time.Second)
	if !errors.Is(rerr, ErrUnknownObject) {
		t.Errorf("err = %v", rerr)
	}
}

func TestDynamicObjectCreation(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			return tx.Write("F0/new-object", int64(5))
		},
	})
	if !cl.Settle(5 * time.Second) {
		t.Fatal("did not settle")
	}
	if !res.Committed {
		t.Fatalf("res = %+v", res)
	}
	// The new object exists in F0 at every replica, and only there: the
	// catalog holds declared objects.
	for i := 0; i < 3; i++ {
		if f, ok := cl.Node(netsim.NodeID(i)).Store().FragmentOf("F0/new-object"); !ok || f != "F0" {
			t.Errorf("node %d: FragmentOf = %v, %v", i, f, ok)
		}
	}
	if _, ok := cl.Catalog().FragmentOf("F0/new-object"); ok {
		t.Error("the catalog indexes a created object")
	}
	if v, _ := cl.Node(2).Store().Get("F0/new-object"); v != int64(5) {
		t.Errorf("replica value = %v", v)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	var seen int64
	submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			if err := tx.Write("F0/a", int64(41)); err != nil {
				return err
			}
			v, err := tx.ReadInt("F0/a")
			if err != nil {
				return err
			}
			seen = v
			return tx.Write("F0/a", v+1)
		},
	})
	cl.Settle(5 * time.Second)
	if seen != 41 {
		t.Errorf("own write not visible: %d", seen)
	}
	if v, _ := cl.Node(1).Store().Get("F0/a"); v != int64(42) {
		t.Errorf("final = %v", v)
	}
}
