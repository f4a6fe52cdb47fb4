package placement

import (
	"fragdb/internal/agentmove"
	"fragdb/internal/core"
)

// SimLoop drives a Controller from the cluster's own virtual-time
// scheduler: every Interval it snapshots the local labeled registry,
// ticks the controller, and executes the resulting decisions with the
// Section 4.4 movement protocols — MoveNoPrep for fully commutative
// agents, MoveMajority on majority-commit clusters, MoveWithSeq
// otherwise, the latter two wrapped in the bounded-backoff Retry so a
// transient partition does not strand a hot agent. Everything runs in
// engine context; there is no synchronization to get wrong.
type SimLoop struct {
	cl      *core.Cluster
	ctrl    *Controller
	retry   agentmove.RetrySpec
	stopped bool

	// Move counters, for sweeps' vacuity guards.
	Started, Completed, Failed int
}

// AttachSim starts a placement loop on a netsim cluster, fed by the
// cluster's labeled registry.
func AttachSim(cl *core.Cluster, cfg Config) *SimLoop {
	lp := &SimLoop{cl: cl, ctrl: NewController(cfg)}
	cl.Sched().After(lp.ctrl.Config().Interval, lp.tick)
	return lp
}

// Controller exposes the loop's controller (for Status inspection).
func (lp *SimLoop) Controller() *Controller { return lp.ctrl }

// Stop halts the loop at the next tick.
func (lp *SimLoop) Stop() { lp.stopped = true }

func (lp *SimLoop) tick() {
	if lp.stopped {
		return
	}
	cl := lp.cl
	decisions := lp.ctrl.Tick(cl.Now(), FromRegistry(cl.Registry()),
		Agents(cl), cl.Config().N)
	for _, d := range decisions {
		lp.execute(d)
	}
	cl.Sched().After(lp.ctrl.Config().Interval, lp.tick)
}

// execute runs one decision through the protocol its agent's
// fragments require.
func (lp *SimLoop) execute(d Decision) {
	cl := lp.cl
	lp.Started++
	done := func(r agentmove.Result) {
		lp.ctrl.MoveDone(d, r.Completed, cl.Now())
		if r.Completed {
			lp.Completed++
		} else {
			lp.Failed++
		}
	}
	commutative := true
	for _, f := range cl.Tokens().FragmentsOf(d.Agent) {
		if !cl.IsCommutative(f) {
			commutative = false
			break
		}
	}
	window := lp.ctrl.Config().MoveWindow
	switch {
	case commutative:
		agentmove.MoveNoPrep(cl, d.Agent, d.To, done)
	case cl.Config().MajorityCommit:
		agentmove.Retry(cl, lp.retry, func(cb func(agentmove.Result)) {
			agentmove.MoveMajority(cl, d.Agent, d.To, window, cb)
		}, done)
	default:
		agentmove.Retry(cl, lp.retry, func(cb func(agentmove.Result)) {
			agentmove.MoveWithSeq(cl, d.Agent, d.To, window, cb)
		}, done)
	}
}

// Agents lists the cluster's movable agents for the controller,
// skipping bookkeeping agents that hold no fragment tokens.
func Agents(cl *core.Cluster) []AgentInfo {
	var out []AgentInfo
	for _, a := range cl.Tokens().Agents() {
		fs := cl.Tokens().FragmentsOf(a)
		if len(fs) == 0 {
			continue
		}
		home, ok := cl.Tokens().Home(a)
		if !ok {
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
