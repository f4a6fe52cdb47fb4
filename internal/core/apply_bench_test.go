package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/fragments"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// sinkNet is all the transport a lone replica needs: it discards every
// send, and nothing arrives through it.
type sinkNet struct{ n int }

func (s sinkNet) N() int                                      { return s.n }
func (sinkNet) Reachable(a, b netsim.NodeID) bool             { return true }
func (sinkNet) SetHandler(id netsim.NodeID, h netsim.Handler) {}
func (sinkNet) Send(from, to netsim.NodeID, payload any)      {}

// applyFrags is the number of two-object fragments the replica holds.
const applyFrags = 64

func applyFrag(i int) fragments.FragmentID { return fragments.FragmentID(fmt.Sprintf("B%02d", i)) }

// applyReplica builds a deployed node — node 0 of four, holding
// applyFrags fragments whose agents live at nodes 1–3, so every update
// it installs arrives as a remote quasi-transaction.
func applyReplica(tb testing.TB) *Cluster {
	tb.Helper()
	cl := NewDeployed(Config{N: 4}, 0, simtime.NewScheduler(1), sinkNet{4})
	for i := 0; i < applyFrags; i++ {
		f := applyFrag(i)
		if err := cl.Catalog().AddFragment(f, fragments.ObjectID(f+"/a"), fragments.ObjectID(f+"/b")); err != nil {
			tb.Fatal(err)
		}
		home := netsim.NodeID(1 + i%3)
		cl.Tokens().Assign(f, fragments.NodeAgent(home), home)
	}
	if err := cl.Start(); err != nil {
		tb.Fatal(err)
	}
	return cl
}

// applyStream generates n quasi-transactions in arrival order, spread
// uniformly over the fragments or skewed 80/20 onto the first four.
// Each writes its fragment's "a" object with its stream position and
// its "b" object with a constant — or, fresh, one object no earlier
// quasi-transaction wrote, as a deployed deposit creates its entry.
func applyStream(n int, skewed, fresh bool) []txn.Quasi {
	rng := rand.New(rand.NewSource(11))
	seqs := make([]uint64, applyFrags)
	qs := make([]txn.Quasi, n)
	for i := range qs {
		fi := rng.Intn(applyFrags)
		if skewed && rng.Intn(5) != 0 {
			fi = rng.Intn(4)
		}
		f, home := applyFrag(fi), netsim.NodeID(1+fi%3)
		seqs[fi]++
		writes := []txn.WriteOp{
			{Object: fragments.ObjectID(f + "/a"), Value: int64(seqs[fi])},
			{Object: fragments.ObjectID(f + "/b"), Value: int64(-1)},
		}
		if fresh {
			writes = []txn.WriteOp{{Object: fragments.ObjectID(fmt.Sprintf("%s/e%d", f, i)), Value: int64(seqs[fi])}}
		}
		qs[i] = txn.Quasi{
			Txn:      txn.ID{Origin: home, Seq: uint64(i + 1)},
			Fragment: f, Pos: txn.FragPos{Seq: seqs[fi]}, Home: home,
			Writes: writes,
		}
	}
	return qs
}

// feedReplica delivers qs to the local node as its broadcaster would,
// one DataBatch-sized run at a time, running the events each run makes
// due before the next — one rtnet.Loop pass per run.
func feedReplica(cl *Cluster, qs []txn.Quasi) {
	const run = 16
	n, sched := cl.Node(0), cl.Sched()
	var seq [4]uint64
	for i, q := range qs {
		seq[q.Home]++
		n.handleBroadcast(q.Home, seq[q.Home], q)
		if (i+1)%run == 0 || i == len(qs)-1 {
			sched.RunDue(sched.Now())
		}
	}
}

// TestApplyReplicaInstallsEveryQuasi pins what BenchmarkApplySaturation
// measures: every quasi-transaction fed is installed, in stream order,
// and counted once in the labeled registry under its fragment and home,
// so the benchmark cannot pass while applying nothing.
func TestApplyReplicaInstallsEveryQuasi(t *testing.T) {
	for _, fresh := range []bool{false, true} {
		testApplyReplicaInstalls(t, applyStream(2000, true, fresh))
	}
}

func testApplyReplicaInstalls(t *testing.T, qs []txn.Quasi) {
	total := uint64(len(qs))
	cl := applyReplica(t)
	feedReplica(cl, qs)
	if got := cl.Stats().QuasiApplied.Load(); got != total {
		t.Fatalf("applied %d of %d", got, total)
	}
	last := map[fragments.ObjectID]int64{}
	perLabel := map[metrics.Label]uint64{}
	for _, q := range qs {
		last[q.Writes[0].Object] = q.Writes[0].Value.(int64)
		perLabel[metrics.Label{Frag: q.Fragment, Node: q.Home}]++
	}
	for o, want := range last {
		if v, _ := cl.Node(0).Store().Get(o); v != want {
			t.Errorf("%s = %v, want %v", o, v, want)
		}
	}
	for l, want := range perLabel {
		if got := cl.Registry().Applies.Get(l); got != want {
			t.Errorf("registry applies %+v = %d, want %d", l, got, want)
		}
	}
}

// TestReplicaApplyAllocs pins what a replica allocates to take in one
// quasi-transaction off the wire: decode the Data frame carrying it,
// with one write, through the connection's Decoder, and install it.
// The decode makes the values the replica keeps or reads: the Data
// envelope, the boxed quasi-transaction, its write list, the written
// object's id and the boxed value. Installing a rewrite of an object
// the store holds makes nothing.
func TestReplicaApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 1000
	cl := applyReplica(t)
	f, home := applyFrag(1), netsim.NodeID(2)
	frames := make([][]byte, 2*runs+1) // warm-up, AllocsPerRun's own warm-up, measured
	for i := range frames {
		seq := uint64(i + 1)
		q := txn.Quasi{
			Txn: txn.ID{Origin: home, Seq: seq}, Fragment: f, Pos: txn.FragPos{Seq: seq}, Home: home,
			Writes: []txn.WriteOp{{Object: fragments.ObjectID(f + "/a"), Value: int64(1000 + i)}},
		}
		b, err := wire.Encode(broadcast.Data{Origin: home, Seq: seq, Payload: q})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	n, sched := cl.Node(0), cl.Sched()
	dec := wire.NewDecoder()
	next := 0
	apply := func() {
		payload, err := dec.Decode(frames[next])
		if err != nil {
			t.Fatal(err)
		}
		next++
		n.handleTransport(home, payload)
		sched.RunDue(sched.Now())
	}
	for next < runs {
		apply()
	}
	got := testing.AllocsPerRun(runs, apply)
	if applied := cl.Stats().QuasiApplied.Load(); applied != uint64(len(frames)) {
		t.Fatalf("applied %d of %d", applied, len(frames))
	}
	if got > replicaApplyAllocs {
		t.Errorf("%v allocations to decode and install a quasi-transaction, want at most %d", got, replicaApplyAllocs)
	}
}

// replicaApplyAllocs is the most allocations TestReplicaApplyAllocs
// may see.
const replicaApplyAllocs = 5

// BenchmarkApplySaturation measures the replica apply path a deployed
// node runs — handleBroadcast → ingestQuasi → drainStream → applyQuasi,
// the engine's serial apply, labeled registry included — in commits/s,
// on a disjoint (uniform over 64 fragments) and a skewed (80 % onto
// four) stream of rewrites, and on a fresh stream (uniform, each
// quasi-transaction creating an object). retained-B/op is what the
// replica still holds per quasi-transaction after a collection.
func BenchmarkApplySaturation(b *testing.B) {
	for _, wl := range []struct {
		name          string
		skewed, fresh bool
	}{{"disjoint", false, false}, {"skewed", true, false}, {"fresh", false, true}} {
		b.Run(wl.name, func(b *testing.B) {
			cl := applyReplica(b)
			qs := applyStream(b.N, wl.skewed, wl.fresh)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			feedReplica(cl, qs)
			b.StopTimer()
			if got := cl.Stats().QuasiApplied.Load(); got != uint64(b.N) {
				b.Fatalf("applied %d of %d quasi-transactions", got, b.N)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "commits/s")
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(qs)
			runtime.KeepAlive(cl)
			retained := max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0)
			b.ReportMetric(retained/float64(b.N), "retained-B/op")
		})
	}
}
