package deploy

import (
	"time"

	"fragdb/internal/core"
	"fragdb/internal/placement"
	"fragdb/internal/simtime"
)

// Placement is the adaptive placement runner on one deployed node: the
// simulator's placement.Runner, ticking on the node's scheduler, which
// the loop drives on wall time. Every node of the cluster runs its own;
// each decides only about agents homed locally (the home executes all
// of a fragment's updates, so its registry is authoritative for its own
// agents, and two nodes can never decide conflicting moves for the same
// agent). It ends when the node closes and its loop stops.
type Placement struct {
	node *Node
	ctrl *placement.Controller
}

// StartPlacement attaches the placement runner to the node, deciding
// every interval (zero: the controller's default). CommutativeOnly: a
// deployed node moves agents with the broadcast token handoff, which is
// only safe for fully commutative fragments.
func (n *Node) StartPlacement(interval time.Duration) (*Placement, error) {
	p := &Placement{node: n}
	err := n.Inspect(func() {
		cfg := placement.Config{Interval: interval, CommutativeOnly: true}
		p.ctrl = placement.Attach(n.Live.Cluster(), cfg, announce).Controller()
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// announce is a deployed node's mover: the broadcast token handoff,
// which completes the moment the old home announces it.
func announce(cl *core.Cluster, d placement.Decision, _ simtime.Duration, done func(bool)) {
	done(cl.Node(d.From).AnnounceAgentMove(d.Agent, d.To) == nil)
}

// Status snapshots the controller on the engine loop (the
// /admin/placement payload).
func (p *Placement) Status() (placement.Status, error) {
	var st placement.Status
	err := p.node.Inspect(func() { st = p.ctrl.Status() })
	return st, err
}
