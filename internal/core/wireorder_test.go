package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// orderNet is netsim shrunk to what a wire-order regression test needs:
// a fixed-latency transport that records every payload in the order it
// was handed over, then delivers through the shared scheduler.
type orderNet struct {
	n        int
	sched    *simtime.Scheduler
	handlers []netsim.Handler
	sent     []any
}

func (o *orderNet) N() int                            { return o.n }
func (o *orderNet) Reachable(a, b netsim.NodeID) bool { return true }
func (o *orderNet) SetHandler(id netsim.NodeID, h netsim.Handler) {
	o.handlers[id] = h
}

func (o *orderNet) Send(from, to netsim.NodeID, payload any) {
	o.sent = append(o.sent, payload)
	h := o.handlers[to]
	o.sched.After(time.Millisecond, func() { h(from, payload) })
}

// The 2PC fan-out (prepares, then commits/aborts) and the home
// resolution that precedes it must iterate fragments in ID order:
// ranging over the parts/homes maps let the wire order — and with it
// the whole downstream delivery schedule — vary between identical
// seeded runs. Found by halint's mapdeterminism analyzer. The map-order
// bug this guards against shows only with some probability per map
// walk, so the transaction writes more fragments than a small map
// holds (Go iterates a small map's slots in order from a random start,
// which leaves a short key list sorted most of the time) and runs
// several rounds.
func TestMultiFragment2PCMessagesLeaveInFragmentOrder(t *testing.T) {
	const frags = 10
	var objs []fragments.ObjectID
	for i := 0; i < frags; i++ {
		objs = append(objs, fragments.ObjectID(fmt.Sprintf("o%02d", i)))
	}
	for round := 0; round < 4; round++ {
		// Four deployed nodes share one scheduler and the recording
		// transport, each declaring the same schema.
		tr := &orderNet{n: 4, sched: simtime.NewScheduler(23), handlers: make([]netsim.Handler, 4)}
		var cls []*Cluster
		for id := 0; id < 4; id++ {
			cl := NewDeployed(Config{N: 4, Option: UnrestrictedReads}, netsim.NodeID(id), tr.sched, tr)
			for i, o := range objs {
				f := fragments.FragmentID(fmt.Sprintf("F%02d", i))
				cl.Catalog().AddFragment(f, o)
				cl.Tokens().Assign(f, fragments.AgentID(fmt.Sprintf("agent:%d", i)), netsim.NodeID(i%3))
			}
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			for _, o := range objs {
				cl.Load(o, int64(0))
			}
			cls = append(cls, cl)
		}

		// Coordinate at node 3, which homes none of the written
		// fragments — a written fragment homed at the coordinator would
		// contend with the coordinator's own workspace locks.
		var res TxnResult
		cls[3].Node(3).SubmitMulti(TxnSpec{
			Label: "fan-out",
			Program: func(tx *Tx) error {
				for _, o := range objs {
					if err := tx.Write(o, int64(1)); err != nil {
						return err
					}
				}
				return nil
			},
		}, func(r TxnResult) { res = r })
		tr.sched.RunFor(30 * time.Second)
		if err := settled(cls); err != nil {
			t.Fatalf("round %d: did not settle: %v", round, err)
		}
		for _, cl := range cls {
			cl.Shutdown()
		}
		if res.Err != nil || !res.Committed {
			t.Fatalf("multi txn failed: %v", res.Err)
		}

		var prepares, commits []string
		for _, m := range tr.sent {
			switch msg := m.(type) {
			case multiPrepareMsg:
				prepares = append(prepares, string(msg.Fragment))
			case multiCommitMsg:
				commits = append(commits, string(msg.Fragment))
			}
		}
		if len(prepares) != frags || len(commits) != frags {
			t.Fatalf("round %d: unexpected 2PC traffic: prepares=%v commits=%v", round, prepares, commits)
		}
		if !sort.StringsAreSorted(prepares) {
			t.Errorf("round %d: prepares left out of fragment order: %v", round, prepares)
		}
		if !sort.StringsAreSorted(commits) {
			t.Errorf("round %d: commits left out of fragment order: %v", round, commits)
		}
	}
}

// settled is Cluster.Settle's test over deployed nodes that share one
// scheduler: each node has converged and buffers nothing, and all agree
// on every origin's broadcast prefix.
func settled(cls []*Cluster) error {
	for i, cl := range cls {
		if !cl.Converged() || cl.ActiveTxnCount() != 0 || cl.BufferedQuasiCount() != 0 {
			return fmt.Errorf("node %d: converged=%v active=%d buffered=%d",
				i, cl.Converged(), cl.ActiveTxnCount(), cl.BufferedQuasiCount())
		}
	}
	for o := range cls {
		origin := netsim.NodeID(o)
		want := cls[o].Node(origin).bcast.Prefix(origin)
		for i, cl := range cls {
			if got := cl.Node(netsim.NodeID(i)).bcast.Prefix(origin); got != want {
				return fmt.Errorf("node %d holds prefix %d of origin %d's broadcasts, want %d", i, got, o, want)
			}
		}
	}
	return nil
}
