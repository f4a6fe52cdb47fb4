package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
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

// applyReplica builds what a deployed node is: a SingleNode cluster
// over an injected transport — node 0 of four, holding applyFrags
// fragments whose agents live at nodes 1–3, so every update it installs
// arrives as a remote quasi-transaction.
func applyReplica(tb testing.TB) *Cluster {
	tb.Helper()
	cl := NewCluster(Config{N: 4, Seed: 1, Transport: sinkNet{4},
		SingleNode: true, LocalNode: 0})
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
// its "b" object with a constant.
func applyStream(n int, skewed bool) []txn.Quasi {
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
		qs[i] = txn.Quasi{
			Txn:      txn.ID{Origin: home, Seq: uint64(i + 1)},
			Fragment: f, Pos: txn.FragPos{Seq: seqs[fi]}, Home: home,
			Writes: []txn.WriteOp{
				{Object: fragments.ObjectID(f + "/a"), Value: int64(seqs[fi])},
				{Object: fragments.ObjectID(f + "/b"), Value: int64(-1)},
			},
		}
	}
	return qs
}

// feedReplica delivers qs to the local node as its broadcaster would,
// one DataBatch-sized run at a time, running the events each run makes
// due before the next — one rtnet.Loop pass per run.
func feedReplica(cl *Cluster, qs []txn.Quasi) {
	const run = 16
	n, sched := cl.LocalNode(), cl.Sched()
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
	const total = 2000
	cl := applyReplica(t)
	qs := applyStream(total, true)
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
		if v, _ := cl.LocalNode().Store().Get(o); v != want {
			t.Errorf("%s = %v, want %v", o, v, want)
		}
	}
	for l, want := range perLabel {
		if got := cl.Registry().Applies.Get(l); got != want {
			t.Errorf("registry applies %+v = %d, want %d", l, got, want)
		}
	}
}

// BenchmarkApplySaturation measures the replica apply path a deployed
// node runs — handleBroadcast → ingestQuasi → drainStream → applyQuasi,
// the engine's serial apply, labeled registry included — in commits/s,
// on a disjoint (uniform over 64 fragments) and a skewed (80 % onto
// four) stream.
func BenchmarkApplySaturation(b *testing.B) {
	for _, wl := range []struct {
		name   string
		skewed bool
	}{{"disjoint", false}, {"skewed", true}} {
		b.Run(wl.name, func(b *testing.B) {
			cl := applyReplica(b)
			qs := applyStream(b.N, wl.skewed)
			runtime.GC()
			b.ResetTimer()
			feedReplica(cl, qs)
			b.StopTimer()
			if got := cl.Stats().QuasiApplied.Load(); got != uint64(b.N) {
				b.Fatalf("applied %d of %d quasi-transactions", got, b.N)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "commits/s")
			}
		})
	}
}
