package placement

import (
	"fragdb/internal/agentmove"
	"fragdb/internal/core"
	"fragdb/internal/metrics"
	"fragdb/internal/simtime"
)

// Mover carries out one decision on the cluster and calls done once,
// reporting whether the agent reached its new home. window bounds a
// prepared protocol's wait (the controller's MoveWindow). Each host
// supplies its own: Protocols on the simulator, the broadcast token
// handoff on a deployed node.
type Mover func(cl *core.Cluster, d Decision, window simtime.Duration, done func(completed bool))

// Runner drives a Controller from its cluster's own scheduler — virtual
// time on the simulator, wall time on a deployed node, whose loop runs
// the scheduler: every Interval it snapshots the cluster's labeled
// registry, ticks the controller with the agents homed at nodes this
// cluster runs, and hands each decision to the mover. Everything runs
// in engine context; there is no synchronization to get wrong.
type Runner struct {
	cl      *core.Cluster
	ctrl    *Controller
	move    Mover
	stopped bool
}

// Attach starts a placement runner on cl's scheduler.
func Attach(cl *core.Cluster, cfg Config, move Mover) *Runner {
	r := &Runner{cl: cl, ctrl: NewController(cfg), move: move}
	cl.Sched().After(r.ctrl.Config().Interval, r.tick)
	return r
}

// Controller exposes the runner's controller (for Status inspection).
func (r *Runner) Controller() *Controller { return r.ctrl }

// Stop halts the runner at the next tick.
func (r *Runner) Stop() { r.stopped = true }

func (r *Runner) tick() {
	if r.stopped {
		return
	}
	cl := r.cl
	decisions := r.ctrl.Tick(cl.Now(), fromRegistry(cl.Registry()),
		agents(cl), cl.Config().N)
	for _, d := range decisions {
		r.move(cl, d, r.ctrl.Config().MoveWindow, func(completed bool) {
			r.ctrl.MoveDone(d, completed, cl.Now())
		})
	}
	cl.Sched().After(r.ctrl.Config().Interval, r.tick)
}

// Protocols is the simulator's mover: it runs a decision through the
// Section 4.4 protocol its agent's fragments require — MoveNoPrep for
// fully commutative agents, MoveMajority on majority-commit clusters,
// MoveWithSeq otherwise, the latter two wrapped in the bounded-backoff
// Retry so a transient partition does not strand a hot agent.
func Protocols(cl *core.Cluster, d Decision, window simtime.Duration, done func(completed bool)) {
	finish := func(r agentmove.Result) { done(r.Completed) }
	commutative := true
	for _, f := range cl.Tokens().FragmentsOf(d.Agent) {
		if !cl.IsCommutative(f) {
			commutative = false
			break
		}
	}
	switch {
	case commutative:
		agentmove.MoveNoPrep(cl, d.Agent, d.To, finish)
	case cl.Config().MajorityCommit:
		agentmove.Retry(cl, agentmove.RetrySpec{}, func(cb func(agentmove.Result)) {
			agentmove.MoveMajority(cl, d.Agent, d.To, window, cb)
		}, finish)
	default:
		agentmove.Retry(cl, agentmove.RetrySpec{}, func(cb func(agentmove.Result)) {
			agentmove.MoveWithSeq(cl, d.Agent, d.To, window, cb)
		}, finish)
	}
}

// agents lists the movable agents homed at nodes this cluster runs —
// every agent on the simulator, a deployed node's own — skipping
// bookkeeping agents that hold no fragment tokens. A home executes all
// of its fragments' updates, so its registry is authoritative for its
// own agents' traffic, and two processes never decide about one agent.
func agents(cl *core.Cluster) []AgentInfo {
	var out []AgentInfo
	for _, a := range cl.Tokens().Agents() {
		fs := cl.Tokens().FragmentsOf(a)
		if len(fs) == 0 {
			continue
		}
		home, ok := cl.Tokens().Home(a)
		if !ok || cl.Node(home) == nil {
			continue
		}
		info := AgentInfo{Agent: a, Home: home, Frags: fs, Commutative: true}
		for _, f := range fs {
			if !cl.IsCommutative(f) {
				info.Commutative = false
				break
			}
		}
		out = append(out, info)
	}
	return out
}

// fromRegistry snapshots a labeled metrics registry's cumulative
// per-(fragment, origin) read/write counters as an access matrix.
func fromRegistry(reg *metrics.Registry) Matrix {
	m := make(Matrix)
	for _, s := range reg.Reads.Samples() {
		if s.Frag == "" {
			continue
		}
		k := Key{Frag: s.Frag, Node: s.Node}
		c := m[k]
		c.Reads = float64(s.Value)
		m[k] = c
	}
	for _, s := range reg.Writes.Samples() {
		if s.Frag == "" {
			continue
		}
		k := Key{Frag: s.Frag, Node: s.Node}
		c := m[k]
		c.Writes = float64(s.Value)
		m[k] = c
	}
	return m
}
