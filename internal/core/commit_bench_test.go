package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
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

// localCommitAllocs is the most allocations one local commit may make:
// the activeTxn, its write set (which becomes the quasi-transaction's),
// the quasi-transaction boxed for the broadcast and the Data envelope
// that carries it to the peers.
const localCommitAllocs = 4

// TestWaitingTxnTimesOutFromSubmission: a transaction that does not
// finish in the pass that starts it arms its timeout then, and the
// timeout still runs from its submission. Here the pass starts it
// 300 ms late, as a busy loop would, and its program waits on a Think.
func TestWaitingTxnTimesOutFromSubmission(t *testing.T) {
	cl, specs := commitNode(t)
	sched := cl.Sched()
	spec := specs[0]
	spec.Timeout = time.Second
	spec.Program = func(tx *Tx) error {
		tx.Think(time.Hour)
		return nil
	}
	var res TxnResult
	cl.Node(0).Submit(spec, func(r TxnResult) { res = r })
	submitted := sched.Now()
	sched.RunDue(submitted.Add(300 * time.Millisecond))
	sched.RunUntil(submitted.Add(2 * time.Second))
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("result %+v, want a timeout", res)
	}
	if want := submitted.Add(time.Second); res.Start != submitted || res.End != want {
		t.Errorf("started %v, timed out at %v; want %v and %v", res.Start, res.End, submitted, want)
	}
}

// TestLargeWriteSetReadsItsOwnWrites: a program that writes as many
// objects as the central office's largest fold (foldCap, 256) and reads
// them back sees its own writes, the last one per object, and commits
// one write per object in object order. Past linearWrites the
// workspace is indexed, so each operation finds its object without
// scanning the write set.
func TestLargeWriteSetReadsItsOwnWrites(t *testing.T) {
	const writes = 256
	cl, specs := commitNode(t)
	obj := func(i int) fragments.ObjectID { return fragments.ObjectID(fmt.Sprintf("C00/w%03d", i)) }
	// Object 0 is written twice, last with -1.
	want := func(i int) int64 {
		if i == 0 {
			return -1
		}
		return int64(i)
	}
	var indexed bool
	var sent txn.Quasi
	cl.OnQuasiApplied(func(_ netsim.NodeID, q txn.Quasi) { sent = q })
	spec := specs[0]
	spec.Program = func(tx *Tx) error {
		for i := 0; i < writes; i++ {
			if err := tx.Write(obj(i), int64(i)); err != nil {
				return err
			}
		}
		if err := tx.Write(obj(0), int64(-1)); err != nil {
			return err
		}
		for i := 0; i < writes; i++ {
			v, err := tx.ReadInt(obj(i))
			if err != nil {
				return err
			}
			if v != want(i) {
				return fmt.Errorf("read %s = %d, want %d", obj(i), v, want(i))
			}
		}
		at := (*activeTxn)(tx)
		indexed = at.rare != nil && len(at.rare.writeIdx) == writes
		return nil
	}
	var res TxnResult
	cl.Node(0).Submit(spec, func(r TxnResult) { res = r })
	cl.Sched().RunDue(cl.Sched().Now())
	if !res.Committed {
		t.Fatalf("not committed: %v", res.Err)
	}
	if !indexed {
		t.Error("a 256-write workspace is not indexed by object")
	}
	if len(sent.Writes) != writes {
		t.Fatalf("quasi-transaction carries %d writes, want %d", len(sent.Writes), writes)
	}
	for i, w := range sent.Writes {
		if w.Object != obj(i) || w.Value != want(i) {
			t.Fatalf("write %d = %s:%v, want %s:%d", i, w.Object, w.Value, obj(i), want(i))
		}
	}
}

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
