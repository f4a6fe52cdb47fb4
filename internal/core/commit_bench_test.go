package core

import (
	"fmt"
	"runtime"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/simtime"
)

// commitFrags is the number of one-object fragments the agent node
// updates.
const commitFrags = 16

// commitNode builds a deployed node that is the home of every
// fragment's agent: node 0 of four over sinkNet, so each commit's
// broadcast goes nowhere. It returns one read-modify-write spec per
// fragment.
func commitNode(tb testing.TB) (*Cluster, []TxnSpec) {
	tb.Helper()
	cl := NewDeployed(Config{N: 4, Option: UnrestrictedReads}, 0, simtime.NewScheduler(1), sinkNet{4})
	specs := make([]TxnSpec, commitFrags)
	for i := range specs {
		f := fragments.FragmentID(fmt.Sprintf("C%02d", i))
		o := fragments.ObjectID(f + "/n")
		if err := cl.Catalog().AddFragment(f, o); err != nil {
			tb.Fatal(err)
		}
		cl.Tokens().Assign(f, "node:0", 0)
		specs[i] = TxnSpec{Agent: "node:0", Fragment: f,
			Program: func(tx *Tx) error {
				v, err := tx.ReadInt(o)
				if err != nil {
					return err
				}
				return tx.Write(o, v+1)
			}}
	}
	if err := cl.Start(); err != nil {
		tb.Fatal(err)
	}
	return cl, specs
}

// commitOne submits spec and runs one loop pass, as rtnet.Loop would.
func commitOne(cl *Cluster, spec TxnSpec) {
	cl.Node(0).Submit(spec, nil)
	cl.Sched().RunDue(cl.Sched().Now())
}

// TestLocalCommitRunsInOnePass pins what BenchmarkLocalCommit measures:
// on a node with no per-operation latency an uncontended
// read-modify-write commits in the pass that starts it, running its
// program once and scheduling no event for its operations.
func TestLocalCommitRunsInOnePass(t *testing.T) {
	cl, specs := commitNode(t)
	runs := 0
	spec := specs[0]
	program := spec.Program
	spec.Program = func(tx *Tx) error { runs++; return program(tx) }
	sched := cl.Sched()
	for i := 1; i <= 3; i++ {
		before := sched.Processed()
		commitOne(cl, spec)
		// The pass runs the submission and nothing else: the timeout it
		// armed is cancelled at commit.
		if got := sched.Processed() - before; got != 1 {
			t.Fatalf("commit %d: pass ran %d events, want 1", i, got)
		}
		if runs != i {
			t.Fatalf("commit %d: program ran %d times in all, want %d", i, runs, i)
		}
	}
	if got := cl.Stats().Committed.Load(); got != 3 {
		t.Fatalf("committed %d, want 3", got)
	}
	if v, _ := cl.Node(0).Store().Get("C00/n"); v != int64(3) {
		t.Errorf("C00/n = %v, want 3", v)
	}
	if n := len(cl.Node(0).active); n != 0 {
		t.Errorf("%d transactions still active", n)
	}
}

// TestLocalCommitAllocs pins the allocations of one local commit on a
// deployed node (BenchmarkLocalCommit's loop body).
func TestLocalCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cl, specs := commitNode(t)
	for i := 0; i < 1000; i++ {
		commitOne(cl, specs[i%commitFrags]) // warm the lock table and store
	}
	i := 0
	got := testing.AllocsPerRun(1000, func() {
		commitOne(cl, specs[i%commitFrags])
		i++
	})
	if got > localCommitAllocs {
		t.Errorf("%v allocations per local commit, want at most %d", got, localCommitAllocs)
	}
}

// localCommitAllocs is the most allocations one local commit may make.
const localCommitAllocs = 20

// BenchmarkLocalCommit measures a deployed node's local commit: submit
// a read-modify-write of one object, run one loop pass; the program
// runs, commits and broadcasts (to a transport that drops it).
func BenchmarkLocalCommit(b *testing.B) {
	cl, specs := commitNode(b)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitOne(cl, specs[i%commitFrags])
	}
	b.StopTimer()
	if got := cl.Stats().Committed.Load(); got != uint64(b.N) {
		b.Fatalf("committed %d of %d", got, b.N)
	}
}
