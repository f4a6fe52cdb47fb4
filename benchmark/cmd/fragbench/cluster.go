package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/deploy"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	app "fragdb/internal/workload"
)

// engineSeed is hanode's default -seed; in-process nodes use the same
// one, so both kinds of cluster run the identical engine configuration
// and the benchmark's --seed shapes only the operations.
const engineSeed = 1

// settleTimeout bounds every wait for the cluster to reach a state the
// benchmark expects; running into it fails the run.
const settleTimeout = 30 * time.Second

// inproc is a 3-node cluster of deploy nodes in this process, talking
// over loopback TCP through the benchmark's taps.
type inproc struct {
	nodes [nodes]*deploy.Node
	taps  [nodes]*tap
}

// startInproc binds three loopback listeners and assembles a node on
// each, with default deploy settings apart from the control option.
func startInproc(option string, clk clock, traced bool) (*inproc, error) {
	c := &inproc{}
	var lns [nodes]net.Listener
	// fail releases whatever was built; closing a listener its
	// transport already closed is harmless.
	fail := func(err error) (*inproc, error) {
		c.close()
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen: %w", err))
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := 0; i < nodes; i++ {
		tcp, err := rtnet.NewTCP(rtnet.TCPConfig{Local: netsim.NodeID(i), Addrs: addrs, Listener: lns[i]})
		if err != nil {
			return fail(fmt.Errorf("node %d transport: %w", i, err))
		}
		tp := newTap(tcp, clk, traced)
		nd, err := deploy.New(deploy.Config{ID: i, Addrs: addrs, Option: option, Seed: engineSeed}, tp)
		if err != nil {
			tcp.Close()
			return fail(fmt.Errorf("node %d: %w", i, err))
		}
		nd.TCP = tcp // the node owns the transport: Close and SetPeerDrop reach it
		tp.loop.Store(nd.Loop)
		c.nodes[i], c.taps[i] = nd, tp
	}
	return c, nil
}

func (c *inproc) close() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

// poll calls ok every interval until it reports true; it gives up when
// settleTimeout has passed or ctx is done.
func poll(ctx context.Context, interval time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(settleTimeout)
	for !ok() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		time.Sleep(interval)
	}
	return true
}

// ready completes set-up: every peer link is up and one canary bump per
// node is visible on all three replicas.
func (c *inproc) ready(ctx context.Context) error {
	linked := poll(ctx, 200*time.Microsecond, func() bool {
		for i, nd := range c.nodes {
			for j := 0; j < nodes; j++ {
				if !nd.TCP.Reachable(netsim.NodeID(i), netsim.NodeID(j)) {
					return false
				}
			}
		}
		return true
	})
	if !linked {
		return errors.New("set-up: peer links did not come up")
	}
	acks := make(chan core.TxnResult, nodes)
	for _, nd := range c.nodes {
		if err := nd.Do(deploy.Op{Kind: "bump", Amount: 1}, func(r core.TxnResult) { acks <- r }); err != nil {
			return fmt.Errorf("set-up: canary: %w", err)
		}
	}
	for range c.nodes {
		select {
		case r := <-acks:
			if !r.Committed {
				return fmt.Errorf("set-up: canary aborted: %v", r.Err)
			}
		case <-time.After(settleTimeout):
			return errors.New("set-up: canary not acknowledged")
		}
	}
	seen := poll(ctx, 200*time.Microsecond, func() bool {
		for i, nd := range c.nodes {
			var ctr int64
			if nd.Inspect(func() { ctr = nd.Live.CounterTotal(netsim.NodeID(i)) }) != nil || ctr != nodes {
				return false
			}
		}
		return true
	})
	if !seen {
		return errors.New("set-up: canaries did not reach every replica")
	}
	return nil
}

// isolate cuts node 0, the central office, off from both peers (or
// reconnects it): the drop rule goes on both sides of both links.
func (c *inproc) isolate(cut bool) {
	for peer := 1; peer < nodes; peer++ {
		_ = c.nodes[0].SetPeerDrop(peer, cut) // cannot fail: the node has its TCP
		_ = c.nodes[peer].SetPeerDrop(0, cut)
	}
}

// sendDropped sums the transports' dropped-send counters.
func (c *inproc) sendDropped() uint64 {
	var n uint64
	for _, nd := range c.nodes {
		n += nd.TCP.Stats().SendDropped.Load()
	}
	return n
}

// frontier reads, per origin, how far that node's own broadcast stream
// has got: everything it committed so far.
func (c *inproc) frontier() [nodes]uint64 {
	var f [nodes]uint64
	for o, nd := range c.nodes {
		id := netsim.NodeID(o)
		f[o] = nd.Live.Cluster().Node(id).Broadcaster().Prefix(id)
	}
	return f
}

// caughtUp reports whether every replica has delivered every origin's
// stream at least up to the frontier f.
func (c *inproc) caughtUp(f [nodes]uint64) bool {
	for r, nd := range c.nodes {
		b := nd.Live.Cluster().Node(netsim.NodeID(r)).Broadcaster()
		for o := range f {
			if b.Prefix(netsim.NodeID(o)) < f[o] {
				return false
			}
		}
	}
	return true
}

// replicaState is what the state check reads from one replica.
type replicaState struct {
	activity [nodes]int64 // per account: sum of its ACTIVITY entries
	counter  int64
	queue    int64
	balances int64 // sum of BALANCES; maintained asynchronously by the central office
}

// readState reads a replica on its node's loop, through Node.Inspect.
func readState(nd *deploy.Node) (replicaState, error) {
	local := netsim.NodeID(nd.Cfg.ID)
	var s replicaState
	err := nd.Inspect(func() {
		cl := nd.Live.Cluster()
		store := cl.Node(local).Store()
		for a := 0; a < nodes; a++ {
			acct := app.LiveAccount(a)
			frag, ok := cl.Catalog().Fragment(fragments.FragmentID("ACTIVITY(" + acct + ")"))
			if !ok {
				continue
			}
			for _, o := range frag.Objects() {
				if v, known := store.Get(o); known {
					s.activity[a] += v.(int64)
				}
			}
		}
		s.counter = nd.Live.CounterTotal(local)
		s.queue = int64(nd.Live.QueueLen(local))
		for a := 0; a < 2*nodes; a++ {
			s.balances += nd.Live.Balance(local, app.LiveAccount(a))
		}
	})
	return s, err
}

// check is the correctness check of the in-process workloads: every
// replica must hold exactly the acknowledged writes — per account the
// sum of its ACTIVITY entries, the counter total, the queue length.
//
// BALANCES is not compared: the central office folds activity into it
// one entry at a time (four 100 µs operations each, ~2.9k entries/s)
// while direct_* acknowledge ~5x that, so balances trail by minutes
// and waiting for them would cost several windows. http_mixed, which
// the office keeps up with, checks them (see httpCluster.check).
func (c *inproc) check(want tally) error {
	for i, nd := range c.nodes {
		s, err := readState(nd)
		if err != nil {
			return fmt.Errorf("state check: node %d: %w", i, err)
		}
		for a, sum := range s.activity {
			if sum != want.activity[a] {
				return fmt.Errorf("state check: node %d holds activity %d for account %d, acknowledged %d",
					i, sum, a, want.activity[a])
			}
		}
		if s.counter != want.bumps {
			return fmt.Errorf("state check: node %d counts %d, acknowledged bumps %d", i, s.counter, want.bumps)
		}
		if s.queue != want.enqueues {
			return fmt.Errorf("state check: node %d queues %d, acknowledged enqueues %d", i, s.queue, want.enqueues)
		}
	}
	return nil
}
