package deploy

import (
	"runtime"
	"sync/atomic"
	"testing"

	"fragdb/internal/core"
	"fragdb/internal/workload"
)

// a2Op is operation k of a node's share of EXPERIMENTS.md's A2 mix, all
// of it local, acct being the node's account: 40 % deposits, 40 %
// withdrawals, 10 % bumps and 10 % enqueues. Withdrawals take less than
// deposits add, so none is refused.
func a2Op(acct string, k int) Op {
	switch k % 10 {
	case 0, 1, 2, 3:
		return Op{Kind: "deposit", Account: acct, Amount: 50}
	case 4, 5, 6, 7:
		return Op{Kind: "withdraw", Account: acct, Amount: 30}
	case 8:
		return Op{Kind: "bump", Amount: 1}
	default:
		return Op{Kind: "enqueue", Item: "it"}
	}
}

// rotatingLoop submits ops operations from one goroutine, round robin
// over the nodes, keeping inFlight of them outstanding in all, and
// waits for them: fragbench's direct_mixed load. It returns how many
// did not commit and how many committed bumps there were.
func rotatingLoop(tb testing.TB, nodes []*Node, ops, inFlight int) (failed, bumps int64) {
	tb.Helper()
	var nFailed, nBumps atomic.Int64
	accts := make([]string, len(nodes))
	for i := range accts {
		accts[i] = workload.LiveAccount(i)
	}
	slots := make(chan struct{}, inFlight)
	for k := 0; k < ops; k++ {
		i := k % len(nodes)
		o := a2Op(accts[i], k/len(nodes))
		isBump := o.Kind == "bump"
		slots <- struct{}{}
		if err := nodes[i].Do(o, func(r core.TxnResult) {
			if !r.Committed {
				nFailed.Add(1)
			} else if isBump {
				nBumps.Add(1)
			}
			<-slots
		}); err != nil {
			tb.Fatalf("node %d: %v", i, err)
		}
	}
	for k := 0; k < inFlight; k++ { // wait for the tail
		slots <- struct{}{}
	}
	return nFailed.Load(), nBumps.Load()
}

// BenchmarkTCPCommit measures what a commit costs the whole cluster:
// three nodes over loopback TCP run the A2 mix as fragbench's
// direct_mixed does — one closed-loop generator, 4 operations in
// flight in all — and the benchmark reports the bytes and heap objects
// the process allocated per commit (runtime.MemStats deltas, so the
// home commit, the broadcast, both replicas' receive path and apply
// all count) and commits/s. The window closes when the last commit is
// acknowledged, a replica lag behind the window's start; the replicas'
// convergence is checked after it, so polling for it is not counted.
// (closedLoop's generator per node, at 4 in flight each, saturates the
// loops until repair re-sends about one payload per push, which
// direct_mixed does not do.)
func BenchmarkTCPCommit(b *testing.B) {
	nodes, _ := tcpCluster(b, 3, "", nil)
	// Warm up: links, lock tables, stores and trace rings reach their
	// working size before the window opens.
	_, warm := rotatingLoop(b, nodes, 3000, 4)
	quiesce(b, nodes, warm, false)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	failed, bumps := rotatingLoop(b, nodes, b.N, 4)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	quiesce(b, nodes, warm+bumps, false)
	if failed != 0 {
		b.Fatalf("%d operations did not commit", failed)
	}
	commits := float64(b.N)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/commits, "B/commit")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/commits, "allocs/commit")
	b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
}
