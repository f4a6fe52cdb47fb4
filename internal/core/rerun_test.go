package core

import (
	"errors"
	"testing"
	"time"

	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

// TestProgramRerunsOncePerWait: in the simulator every operation waits
// out the per-operation latency, so a program of k operations runs k+1
// times, and each rerun is answered from the log — even after the
// stored value changed underneath.
func TestProgramRerunsOncePerWait(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	runs := 0
	var seen []int64
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			runs++
			a, err := tx.ReadInt("F0/a")
			if err != nil {
				return err
			}
			seen = append(seen, a)
			b, err := tx.ReadInt("F0/b")
			if err != nil {
				return err
			}
			return tx.Write("F0/a", a+b+1)
		},
	})
	// F0/a was answered at 1 ms; overwrite node 0's copy behind the
	// engine's back before the reruns.
	cl.Sched().After(1500*time.Microsecond, func() {
		if err := cl.Node(0).Store().Load("F0/a", int64(100)); err != nil {
			t.Error(err)
		}
	})
	cl.RunFor(100 * time.Millisecond)
	if !res.Committed || res.End.Sub(res.Start) != 3*time.Millisecond {
		t.Fatalf("result = %+v, want committed after 3ms", res)
	}
	if runs != 4 {
		t.Errorf("program ran %d times, want 4 (three waits)", runs)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 0 || seen[2] != 0 {
		t.Errorf("F0/a as each run saw it = %v, want [0 0 0]", seen)
	}
	if v, _ := cl.Node(0).Store().Get("F0/a"); v != int64(1) {
		t.Errorf("F0/a = %v, want 1", v)
	}
}

// TestAbortDuringWaitNeverReruns: a timeout, a wound or a crash while
// the program waits finalizes the transaction with that cause, fires
// done once, and the answer the run waited for never runs the program
// again.
func TestAbortDuringWaitNeverReruns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		abort   func(cl *Cluster)
		want    error
	}{
		{"timeout", 50 * time.Millisecond, func(*Cluster) {}, ErrTimeout},
		{"wound", time.Hour, func(cl *Cluster) {
			cl.Node(0).woundHolders("F0/a", txn.ID{Origin: 1, Seq: 999})
		}, ErrWounded},
		{"crash", time.Hour, func(cl *Cluster) { cl.Node(0).SimulateCrashRestart() }, ErrCrashed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := bankCluster(t, UnrestrictedReads)
			defer cl.Shutdown()
			runs, dones := 0, 0
			var res TxnResult
			cl.Node(0).Submit(TxnSpec{
				Agent: "node:0", Fragment: "F0", Timeout: tc.timeout,
				Program: func(tx *Tx) error {
					runs++
					if err := tx.Write("F0/a", int64(7)); err != nil {
						return err
					}
					tx.Think(time.Second)
					return nil
				},
			}, func(r TxnResult) { res = r; dones++ })
			cl.Sched().After(100*time.Millisecond, func() { tc.abort(cl) })
			cl.RunFor(3 * time.Second)
			if dones != 1 || res.Committed || !errors.Is(res.Err, tc.want) {
				t.Fatalf("done fired %d times, last %+v; want once with %v", dones, res, tc.want)
			}
			if runs != 2 {
				t.Errorf("program ran %d times, want 2 (the write's wait, then the think's)", runs)
			}
			if v, _ := cl.Node(0).Store().Get("F0/a"); v != int64(0) {
				t.Errorf("F0/a = %v, want 0", v)
			}
		})
	}
}

// TestIgnoredWaitingErrorCommitsRightValue: a program that drops a
// read's error writes garbage on the run that waited, but that run is
// discarded; the committed value comes from the run with the answer.
func TestIgnoredWaitingErrorCommitsRightValue(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	if err := cl.Load("F0/a", int64(5)); err != nil {
		t.Fatal(err)
	}
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			v, _ := tx.ReadInt("F0/a")
			return tx.Write("F0/a", v+1)
		},
	})
	if !cl.Settle(10 * time.Second) {
		t.Fatal("did not settle")
	}
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	for i := netsim.NodeID(0); i < 3; i++ {
		if v, _ := cl.Node(i).Store().Get("F0/a"); v != int64(6) {
			t.Errorf("node %d: F0/a = %v, want 6", i, v)
		}
	}
}

// TestRerunSeesObjectCatalogedBetweenRuns: a program that scans a
// fragment's catalog sees an object added while it waited. The rerun
// diverges from its log there: it reads the new object and takes its
// write again, and commits what that run computed.
func TestRerunSeesObjectCatalogedBetweenRuns(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	defer cl.Shutdown()
	frag, _ := cl.Catalog().Fragment("F1")
	res := submitSync(cl, 0, TxnSpec{
		Agent: "node:0", Fragment: "F0",
		Program: func(tx *Tx) error {
			sum := int64(0)
			for _, o := range frag.Objects() {
				v, err := tx.ReadInt(o)
				if err != nil {
					return err
				}
				sum += v
			}
			return tx.Write("F0/a", sum)
		},
	})
	// F1/a and F1/b are answered at 1 and 2 ms; the write of F0/a waits
	// until 3 ms. F1/c appears in between.
	cl.Sched().After(2500*time.Microsecond, func() {
		if err := cl.Catalog().AddObject("F1", "F1/c"); err != nil {
			t.Error(err)
		}
		if err := cl.Load("F1/c", int64(7)); err != nil {
			t.Error(err)
		}
	})
	if !cl.Settle(10 * time.Second) {
		t.Fatal("did not settle")
	}
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	if v, _ := cl.Node(0).Store().Get("F0/a"); v != int64(7) {
		t.Errorf("F0/a = %v, want 7 (the new object's value)", v)
	}
}
