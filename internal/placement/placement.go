// Package placement decides where fragment agents should live. It
// consumes the labeled metrics registry's per-(fragment, origin-node)
// access matrix, maintains exponentially decayed per-window access
// rates, and scores candidate homes with a write-weighted affinity
// function. Behind hysteresis, a per-agent cooldown, and a global
// in-flight-move cap, it emits move decisions that its Runner hands to
// a host's Mover: the §4.4 agentmove protocols on the simulator, the
// broadcast token handoff for commutative agents on deployed nodes.
//
// The package is deterministic: no wall-clock reads, no unseeded
// randomness. The Runner ticks on its cluster's scheduler, virtual or
// wall-paced, so the same tick sequence always yields the same
// decisions — the property the chaos sweep's replay check relies on.
package placement

import (
	"math"
	"sort"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// Key identifies one cell of the access matrix: a fragment and the
// node the accesses originated at.
type Key struct {
	Frag fragments.FragmentID `json:"frag"`
	Node netsim.NodeID        `json:"node"`
}

// Counts is one cell's cumulative read/write totals.
type Counts struct {
	Reads  float64 `json:"reads"`
	Writes float64 `json:"writes"`
}

// Matrix is a cumulative access matrix snapshot.
type Matrix map[Key]Counts

// Rate is one cell's per-second access rate.
type Rate struct {
	Reads  float64 `json:"reads_per_sec"`
	Writes float64 `json:"writes_per_sec"`
}

// Config tunes the controller. Zero values take the defaults noted on
// each field.
type Config struct {
	// Interval is the Runner's tick period (default 250ms). The
	// controller itself is tick-driven; this is recorded for status
	// reporting and used by the Runner to schedule itself.
	Interval simtime.Duration `json:"interval_ns"`
	// HalfLife is the exponential-decay half-life of the windowed
	// access rates (default 1s): a burst's influence halves every
	// HalfLife of subsequent silence.
	HalfLife simtime.Duration `json:"half_life_ns"`
	// MinRate is the total access rate (reads+writes/sec, summed over
	// origins) an agent's fragments must attract before any move is
	// considered (default 2/s) — idle agents stay put.
	MinRate float64 `json:"min_rate"`
	// Hysteresis is how much better (multiplicatively) a challenger
	// node's affinity must be than the incumbent home's before moving
	// (default 1.5). Values > 1 prevent ping-ponging between nodes
	// with near-equal traffic.
	Hysteresis float64 `json:"hysteresis"`
	// WriteWeight is how many reads one write is worth in the affinity
	// score (default 3): updates must execute at the home, while reads
	// are often served by local replicas, so write locality dominates.
	WriteWeight float64 `json:"write_weight"`
	// Cooldown is the per-agent refractory period between move
	// decisions (default 2s) — the flap guard.
	Cooldown simtime.Duration `json:"cooldown_ns"`
	// MaxInFlight caps concurrent moves cluster-wide (default 1): move
	// protocols block the fragment's update stream, so a move storm is
	// itself an availability incident.
	MaxInFlight int `json:"max_in_flight"`
	// MoveWindow bounds each prepared move protocol's wait (default
	// 500ms).
	MoveWindow simtime.Duration `json:"move_window_ns"`
	// CommutativeOnly restricts decisions to agents whose fragments
	// are all commutative. Deployed nodes require it (the
	// token-handoff protocol is only safe for commutative fragments);
	// the simulator, whose mover runs the full agentmove protocols,
	// leaves it off.
	CommutativeOnly bool `json:"commutative_only"`
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.HalfLife <= 0 {
		c.HalfLife = time.Second
	}
	if c.MinRate <= 0 {
		c.MinRate = 2
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 1.5
	}
	if c.WriteWeight <= 0 {
		c.WriteWeight = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1
	}
	if c.MoveWindow <= 0 {
		c.MoveWindow = 500 * time.Millisecond
	}
	return c
}

// AgentInfo describes one movable agent to the controller.
type AgentInfo struct {
	Agent       fragments.AgentID
	Home        netsim.NodeID
	Frags       []fragments.FragmentID
	Commutative bool // every fragment the agent holds commutes
}

// Decision is one move the controller wants executed.
type Decision struct {
	Agent     fragments.AgentID `json:"agent"`
	From      netsim.NodeID     `json:"from"`
	To        netsim.NodeID     `json:"to"`
	Affinity  float64           `json:"affinity"`  // challenger's score
	Incumbent float64           `json:"incumbent"` // current home's score
	At        simtime.Time      `json:"at_ns"`
}

// MoveRecord is one finished (or failed) move in the status history.
type MoveRecord struct {
	Decision
	Completed bool         `json:"completed"`
	EndedAt   simtime.Time `json:"ended_at_ns"`
}

// Controller holds the decayed rate state and move bookkeeping. It is
// not internally synchronized: its Runner calls it from the engine
// context, and readers elsewhere must go through that context.
type Controller struct {
	cfg    Config
	seeded bool
	at     simtime.Time
	prev   Matrix
	rates  map[Key]Rate

	lastMove map[fragments.AgentID]simtime.Time
	inflight map[fragments.AgentID]bool
	history  []MoveRecord

	decided, completed, failed int
}

// historyCap bounds the status history.
const historyCap = 64

// NewController builds a controller with defaults applied.
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:      cfg.withDefaults(),
		rates:    make(map[Key]Rate),
		lastMove: make(map[fragments.AgentID]simtime.Time),
		inflight: make(map[fragments.AgentID]bool),
	}
}

// Config returns the effective (default-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Tick feeds one cumulative matrix snapshot (diffed internally against
// the previous tick's) and returns the moves to execute now. The first
// tick only seeds the window.
func (c *Controller) Tick(now simtime.Time, cum Matrix, agents []AgentInfo, nodes int) []Decision {
	inst := c.diff(now, cum)
	if inst == nil {
		return nil
	}
	c.absorb(now, inst)
	return c.decide(now, agents, nodes)
}

// diff converts a cumulative snapshot into instantaneous rates against
// the previous snapshot; nil on the seeding tick. Counters that shrank
// (a restarted source) clamp to zero.
func (c *Controller) diff(now simtime.Time, cum Matrix) map[Key]Rate {
	if !c.seeded {
		c.seeded = true
		c.at = now
		c.prev = cum
		return nil
	}
	dt := now.Sub(c.at).Seconds()
	if dt <= 0 {
		return nil
	}
	inst := make(map[Key]Rate, len(cum))
	for k, cur := range cum {
		p := c.prev[k]
		inst[k] = Rate{
			Reads:  clampRate(cur.Reads-p.Reads, dt),
			Writes: clampRate(cur.Writes-p.Writes, dt),
		}
	}
	c.prev = cum
	return inst
}

func clampRate(delta, dt float64) float64 {
	if delta < 0 {
		return 0
	}
	return delta / dt
}

// absorb folds instantaneous rates into the decayed window:
// rate' = alpha·rate + (1-alpha)·inst, with alpha = 2^(-dt/halfLife).
func (c *Controller) absorb(now simtime.Time, inst map[Key]Rate) {
	dt := now.Sub(c.at).Seconds()
	c.at = now
	if dt <= 0 {
		return
	}
	alpha := math.Exp2(-dt / c.cfg.HalfLife.Seconds())
	for k, r := range c.rates {
		i := inst[k]
		c.rates[k] = Rate{
			Reads:  alpha*r.Reads + (1-alpha)*i.Reads,
			Writes: alpha*r.Writes + (1-alpha)*i.Writes,
		}
	}
	for k, i := range inst {
		if _, ok := c.rates[k]; ok {
			continue
		}
		c.rates[k] = Rate{Reads: (1 - alpha) * i.Reads, Writes: (1 - alpha) * i.Writes}
	}
}

// decide scores every eligible agent's candidate homes and emits moves
// within the in-flight cap. Agents are processed in sorted id order so
// the outcome is independent of map iteration.
func (c *Controller) decide(now simtime.Time, agents []AgentInfo, nodes int) []Decision {
	sorted := make([]AgentInfo, len(agents))
	copy(sorted, agents)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Agent < sorted[j].Agent })

	var out []Decision
	slots := c.cfg.MaxInFlight - len(c.inflight)
	for _, a := range sorted {
		if slots <= 0 {
			break
		}
		if len(a.Frags) == 0 || int(a.Home) >= nodes {
			continue
		}
		if c.cfg.CommutativeOnly && !a.Commutative {
			continue
		}
		if c.inflight[a.Agent] {
			continue
		}
		if last, ok := c.lastMove[a.Agent]; ok && now.Sub(last) < c.cfg.Cooldown {
			continue
		}
		aff := make([]float64, nodes)
		total := 0.0
		for _, f := range a.Frags {
			for node := 0; node < nodes; node++ {
				r := c.rates[Key{Frag: f, Node: netsim.NodeID(node)}]
				aff[node] += c.cfg.WriteWeight*r.Writes + r.Reads
				total += r.Reads + r.Writes
			}
		}
		if total < c.cfg.MinRate {
			continue
		}
		incumbent := aff[int(a.Home)]
		best, bestNode := incumbent, a.Home
		for node := 0; node < nodes; node++ {
			id := netsim.NodeID(node)
			if id == a.Home {
				continue
			}
			if aff[node] > best {
				best, bestNode = aff[node], id
			}
		}
		if bestNode == a.Home || best <= incumbent*c.cfg.Hysteresis || best <= 0 {
			continue
		}
		d := Decision{Agent: a.Agent, From: a.Home, To: bestNode,
			Affinity: best, Incumbent: incumbent, At: now}
		c.inflight[a.Agent] = true
		c.lastMove[a.Agent] = now
		c.decided++
		out = append(out, d)
		slots--
	}
	return out
}

// MoveDone reports a decision's outcome back to the controller,
// freeing its in-flight slot and (re)starting the agent's cooldown.
func (c *Controller) MoveDone(d Decision, completed bool, now simtime.Time) {
	delete(c.inflight, d.Agent)
	c.lastMove[d.Agent] = now
	if completed {
		c.completed++
	} else {
		c.failed++
	}
	c.history = append(c.history, MoveRecord{Decision: d, Completed: completed, EndedAt: now})
	if len(c.history) > historyCap {
		c.history = c.history[len(c.history)-historyCap:]
	}
}

// RateSample is one matrix cell of a Status snapshot.
type RateSample struct {
	Key
	Rate
}

// Status is the controller's inspectable state (the /admin/placement
// payload).
type Status struct {
	Config    Config       `json:"config"`
	At        simtime.Time `json:"at_ns"`
	Rates     []RateSample `json:"rates,omitempty"`
	InFlight  []string     `json:"in_flight,omitempty"`
	History   []MoveRecord `json:"history,omitempty"`
	Decided   int          `json:"decided"`
	Completed int          `json:"completed"`
	Failed    int          `json:"failed"`
}

// Status snapshots the controller deterministically (sorted samples).
func (c *Controller) Status() Status {
	st := Status{Config: c.cfg, At: c.at,
		Decided: c.decided, Completed: c.completed, Failed: c.failed}
	for k, r := range c.rates {
		if r.Reads == 0 && r.Writes == 0 {
			continue
		}
		st.Rates = append(st.Rates, RateSample{Key: k, Rate: r})
	}
	sort.Slice(st.Rates, func(i, j int) bool {
		a, b := st.Rates[i], st.Rates[j]
		if a.Frag != b.Frag {
			return a.Frag < b.Frag
		}
		return a.Node < b.Node
	})
	for a := range c.inflight {
		st.InFlight = append(st.InFlight, string(a))
	}
	sort.Strings(st.InFlight)
	st.History = append(st.History, c.history...)
	return st
}
