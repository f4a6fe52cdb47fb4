package deploy

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
)

// TestPlacementMovesHotCounterHome: three deployed nodes over loopback
// TCP each run the placement runner every 100 ms, and counter 0, homed
// at node 0, is bumped only from node 2. Node 0's runner reads node
// 2's writes off its own registry (they execute at the home, labelled
// with their origin) and hands the agent to node 2: within 5 s every
// node homes ctr:0 at node 2, node 0's controller records exactly that
// one completed move, and every replica ends on the same counter total.
func TestPlacementMovesHotCounterHome(t *testing.T) {
	const n = 3
	lns, addrs := listen(t, n)
	nodes := make([]*Node, n)
	placements := make([]*Placement, n)
	for i := range nodes {
		nd, err := NewTCP(Config{ID: i, Addrs: addrs, Accounts: n, Seed: int64(i + 1), Listener: lns[i]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
		if placements[i], err = nd.StartPlacement(100 * time.Millisecond); err != nil {
			t.Fatalf("node %d: placement: %v", i, err)
		}
	}

	// One bump of counter 0 in flight from node 2 until stop closes.
	var committed, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctr := 0
		done := make(chan core.TxnResult, 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := nodes[2].Do(Op{Kind: "bump", Amount: 1, Counter: &ctr}, func(r core.TxnResult) { done <- r }); err != nil {
				t.Error(err)
				return
			}
			if (<-done).Committed {
				committed.Add(1)
			} else {
				failed.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	homedAtNode2 := func() bool {
		for _, nd := range nodes {
			var home netsim.NodeID
			var ok bool
			if err := nd.Inspect(func() { home, ok = nd.Live.Cluster().Tokens().Home("ctr:0") }); err != nil {
				t.Fatal(err)
			}
			if !ok || home != 2 {
				return false
			}
		}
		return true
	}
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for !homedAtNode2() {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			st, _ := placements[0].Status()
			t.Fatalf("ctr:0 not homed at node 2 everywhere within 5 s (%d bumps committed); node 0's controller: %+v",
				committed.Load(), st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("ctr:0 homed at node 2 everywhere %v after the first bump", time.Since(start))
	close(stop)
	wg.Wait()

	st, err := placements[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Failed != 0 || len(st.History) != 1 {
		t.Fatalf("node 0's controller should record one completed move: %+v", st)
	}
	if mv := st.History[0]; mv.Agent != "ctr:0" || mv.From != 0 || mv.To != 2 || !mv.Completed {
		t.Fatalf("node 0 moved the wrong agent: %+v", mv)
	}
	if committed.Load() == 0 {
		t.Fatal("no bump committed")
	}

	counter := func(i int) int64 {
		var total int64
		if err := nodes[i].Inspect(func() { total = nodes[i].Live.CounterTotal(netsim.NodeID(i)) }); err != nil {
			t.Fatal(err)
		}
		return total
	}
	want := committed.Load()
	deadline = time.Now().Add(5 * time.Second)
	for counter(0) != want || counter(1) != want || counter(2) != want {
		if time.Now().After(deadline) {
			t.Fatalf("counter totals %d/%d/%d, want %d everywhere (%d bumps failed)",
				counter(0), counter(1), counter(2), want, failed.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
