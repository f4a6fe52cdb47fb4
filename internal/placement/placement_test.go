package placement

import (
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

const tick = 250 * time.Millisecond

func testConfig() Config {
	return Config{
		Interval:    tick,
		HalfLife:    500 * time.Millisecond,
		MinRate:     2,
		Hysteresis:  1.5,
		WriteWeight: 3,
		Cooldown:    2 * time.Second,
		MaxInFlight: 1,
	}
}

func agentA(home netsim.NodeID) AgentInfo {
	return AgentInfo{Agent: "a", Home: home,
		Frags: []fragments.FragmentID{"F"}, Commutative: true}
}

// tickRates feeds already-differentiated per-second rates, as Tick
// does after diffing its cumulative snapshot, so a test can state the
// rates directly.
func (c *Controller) tickRates(now simtime.Time, inst map[Key]Rate, agents []AgentInfo, nodes int) []Decision {
	if !c.seeded {
		c.seeded = true
		c.at = now
	}
	c.absorb(now, inst)
	return c.decide(now, agents, nodes)
}

// feed pushes n identical rate ticks and returns every decision made
// along the way plus the final virtual time.
func feed(c *Controller, n int, inst map[Key]Rate, agents []AgentInfo, nodes int) ([]Decision, simtime.Time) {
	var out []Decision
	now := simtime.Time(0)
	for i := 0; i < n; i++ {
		now = simtime.Time((i + 1) * int(tick))
		out = append(out, c.tickRates(now, inst, agents, nodes)...)
	}
	return out, now
}

func TestSkewTriggersMove(t *testing.T) {
	c := NewController(testConfig())
	// Fragment F homed at node 0, but all traffic originates at node 2.
	inst := map[Key]Rate{
		{Frag: "F", Node: 2}: {Reads: 5, Writes: 20},
		{Frag: "F", Node: 0}: {Reads: 1},
	}
	ds, _ := feed(c, 8, inst, []AgentInfo{agentA(0)}, 3)
	if len(ds) != 1 {
		t.Fatalf("want 1 decision, got %v", ds)
	}
	d := ds[0]
	if d.Agent != "a" || d.From != 0 || d.To != 2 {
		t.Fatalf("wrong decision: %+v", d)
	}
	if d.Affinity <= d.Incumbent*c.Config().Hysteresis {
		t.Fatalf("decision below hysteresis bar: %+v", d)
	}
}

func TestWriteWeightDominates(t *testing.T) {
	c := NewController(testConfig())
	// Node 1 reads heavily; node 2 writes. WriteWeight 3 must send the
	// agent to the writer even though the reader has more raw accesses.
	inst := map[Key]Rate{
		{Frag: "F", Node: 1}: {Reads: 20},
		{Frag: "F", Node: 2}: {Writes: 10},
	}
	ds, _ := feed(c, 8, inst, []AgentInfo{agentA(0)}, 3)
	if len(ds) != 1 || ds[0].To != 2 {
		t.Fatalf("want move to writer node 2, got %v", ds)
	}
}

func TestHysteresisBlocksMarginal(t *testing.T) {
	c := NewController(testConfig())
	// Challenger is better, but within the 1.5× hysteresis band.
	inst := map[Key]Rate{
		{Frag: "F", Node: 0}: {Writes: 10},
		{Frag: "F", Node: 1}: {Writes: 13},
	}
	ds, _ := feed(c, 12, inst, []AgentInfo{agentA(0)}, 2)
	if len(ds) != 0 {
		t.Fatalf("hysteresis should block marginal move, got %v", ds)
	}
}

func TestMinRateBlocksIdle(t *testing.T) {
	c := NewController(testConfig())
	// Strong skew but nearly idle: total rate below MinRate.
	inst := map[Key]Rate{
		{Frag: "F", Node: 1}: {Writes: 0.4},
	}
	ds, _ := feed(c, 12, inst, []AgentInfo{agentA(0)}, 2)
	if len(ds) != 0 {
		t.Fatalf("idle agent should stay put, got %v", ds)
	}
}

func TestCommutativeOnlyGate(t *testing.T) {
	cfg := testConfig()
	cfg.CommutativeOnly = true
	c := NewController(cfg)
	inst := map[Key]Rate{{Frag: "F", Node: 1}: {Writes: 50}}
	a := agentA(0)
	a.Commutative = false
	ds, _ := feed(c, 8, inst, []AgentInfo{a}, 2)
	if len(ds) != 0 {
		t.Fatalf("CommutativeOnly must skip non-commutative agents, got %v", ds)
	}
}

func TestMaxInFlightCapsAndReleases(t *testing.T) {
	c := NewController(testConfig())
	b := AgentInfo{Agent: "b", Home: 0,
		Frags: []fragments.FragmentID{"G"}, Commutative: true}
	inst := map[Key]Rate{
		{Frag: "F", Node: 1}: {Writes: 50},
		{Frag: "G", Node: 2}: {Writes: 50},
	}
	agents := []AgentInfo{agentA(0), b}
	ds, now := feed(c, 8, inst, agents, 3)
	if len(ds) != 1 {
		t.Fatalf("MaxInFlight=1 must cap to one decision, got %v", ds)
	}
	first := ds[0]
	// While the move is in flight, nothing else may start.
	now = now + simtime.Time(tick)
	if more := c.tickRates(now, inst, agents, 3); len(more) != 0 {
		t.Fatalf("in-flight move must hold the slot, got %v", more)
	}
	// Completing it frees the slot for the other agent.
	c.MoveDone(first, true, now)
	now = now + simtime.Time(tick)
	ds = c.tickRates(now, inst, agents, 3)
	if len(ds) != 1 || ds[0].Agent == first.Agent {
		t.Fatalf("freed slot should go to the other agent, got %v", ds)
	}
}

// TestFlapGuard oscillates the dominant origin every tick for a
// simulated 20 seconds and proves the per-agent cooldown bounds the
// move frequency: at most horizon/cooldown + 1 moves, no matter how
// violently the workload flaps.
func TestFlapGuard(t *testing.T) {
	cfg := testConfig()
	cfg.HalfLife = 100 * time.Millisecond // track the flapping closely
	c := NewController(cfg)
	const horizon = 20 * time.Second
	home := netsim.NodeID(0)
	moves := 0
	for now := simtime.Time(tick); now <= simtime.Time(horizon); now += simtime.Time(tick) {
		hot := netsim.NodeID(1)
		if (int(now)/int(tick))%2 == 0 {
			hot = 2
		}
		inst := map[Key]Rate{{Frag: "F", Node: hot}: {Writes: 100}}
		ds := c.tickRates(now, inst, []AgentInfo{agentA(home)}, 3)
		for _, d := range ds {
			moves++
			home = d.To
			c.MoveDone(d, true, now)
		}
	}
	max := int(horizon/cfg.Cooldown) + 1
	if moves > max {
		t.Fatalf("flapping workload produced %d moves; cooldown %v bounds it to %d",
			moves, cfg.Cooldown, max)
	}
	if moves == 0 {
		t.Fatal("vacuous: no moves at all under sustained hot traffic")
	}
}

func TestCumulativeDiffSeedsAndClamps(t *testing.T) {
	c := NewController(testConfig())
	a := []AgentInfo{agentA(0)}
	k := Key{Frag: "F", Node: 1}
	// First tick only seeds the window.
	if ds := c.Tick(simtime.Time(tick), Matrix{k: {Writes: 1000}}, a, 2); len(ds) != 0 {
		t.Fatalf("seeding tick must not decide, got %v", ds)
	}
	// A shrinking counter (restart) clamps to zero rate.
	if ds := c.Tick(simtime.Time(2*tick), Matrix{k: {Writes: 10}}, a, 2); len(ds) != 0 {
		t.Fatalf("clamped tick must not decide, got %v", ds)
	}
	if r := c.rates[k]; r.Writes != 0 {
		t.Fatalf("restart must clamp rate to 0, got %v", r)
	}
	// Growth now registers and eventually triggers the move.
	cum := Matrix{k: {Writes: 10}}
	var ds []Decision
	for i := 3; i <= 12 && len(ds) == 0; i++ {
		cum[k] = Counts{Writes: cum[k].Writes + 25}
		ds = c.Tick(simtime.Time(i*int(tick)), cum, a, 2)
	}
	if len(ds) != 1 || ds[0].To != 1 {
		t.Fatalf("sustained growth should move the agent, got %v", ds)
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := NewController(testConfig())
	inst := map[Key]Rate{{Frag: "F", Node: 1}: {Writes: 50}}
	ds, now := feed(c, 8, inst, []AgentInfo{agentA(0)}, 2)
	if len(ds) != 1 {
		t.Fatalf("want a decision, got %v", ds)
	}
	st := c.Status()
	if st.Decided != 1 || len(st.InFlight) != 1 || st.InFlight[0] != "a" {
		t.Fatalf("in-flight status wrong: %+v", st)
	}
	c.MoveDone(ds[0], true, now)
	st = c.Status()
	if st.Completed != 1 || len(st.InFlight) != 0 || len(st.History) != 1 {
		t.Fatalf("completed status wrong: %+v", st)
	}
	if len(st.Rates) == 0 {
		t.Fatal("status should expose nonzero rates")
	}
}
