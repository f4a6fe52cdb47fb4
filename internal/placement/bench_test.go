package placement_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/placement"
	"fragdb/internal/simtime"
	"fragdb/internal/workload"
)

// loadResult is one skewed-workload run's outcome, measured over the
// post-shift window only — the phase where a static placement is
// freshly wrong and an adaptive one has to re-chase the pattern.
type loadResult struct {
	postCommits int
	postRate    float64 // committed bumps per simulated second, post-shift
	postP95     simtime.Duration
	migrations  int
	// remoteFrac is the fraction of post-shift bumps whose target
	// counter was homed away from the submitting node — the forwarded
	// traffic adaptive placement exists to eliminate.
	remoteFrac float64
}

// runSkewedLoad drives a 3-node simulated cluster with closed-loop
// clients whose counter traffic is 90% aimed at a remote fragment
// (node i hammers counter (i+1+phase) mod n), flips the phase halfway
// through, and measures the post-shift window. With adaptive=false the
// initial static placement serves every skewed bump remotely; with
// adaptive=true the placement loop re-homes each counter agent onto
// its dominant origin.
func runSkewedLoad(tb testing.TB, adaptive bool, skew float64) loadResult {
	tb.Helper()
	const (
		n              = 3
		clientsPerNode = 4
		phaseLen       = 4 * time.Second // simulated
	)
	lv, err := workload.NewLive(workload.LiveConfig{
		Cluster: core.Config{N: n, Seed: 7},
	})
	if err != nil {
		tb.Fatal(err)
	}
	cl := lv.Cluster()
	var lp *placement.SimLoop
	if adaptive {
		lp = placement.AttachSim(cl, placement.Config{
			Interval:    100 * time.Millisecond,
			HalfLife:    300 * time.Millisecond,
			MinRate:     1,
			Hysteresis:  1.3,
			Cooldown:    500 * time.Millisecond,
			MaxInFlight: 2,
		})
	}

	var (
		phase   = 0
		stopped = false
		post    = 0
		remote  = 0
		localN  = 0
		lats    []simtime.Duration
		rng     = rand.New(rand.NewSource(3))
	)
	var launch func(origin netsim.NodeID)
	launch = func(origin netsim.NodeID) {
		if stopped {
			return
		}
		ctr := origin
		if rng.Float64() < skew {
			ctr = netsim.NodeID((int(origin) + 1 + phase) % n)
		}
		start := cl.Now()
		inPost := phase == 1
		if inPost {
			agent := fragments.AgentID(fmt.Sprintf("ctr:%d", ctr))
			if home, ok := cl.Tokens().Home(agent); ok && home != origin {
				remote++
			} else {
				localN++
			}
		}
		lv.BumpAt(origin, ctr, 1, func(r core.TxnResult) {
			if r.Committed && inPost {
				post++
				lats = append(lats, cl.Now().Sub(start))
			}
			launch(origin)
		})
	}
	for i := 0; i < n; i++ {
		for c := 0; c < clientsPerNode; c++ {
			launch(netsim.NodeID(i))
		}
	}
	cl.RunFor(phaseLen)
	phase = 1
	cl.RunFor(phaseLen)
	stopped = true
	if !cl.Settle(120 * time.Second) {
		tb.Fatal("cluster did not settle after load")
	}
	res := loadResult{
		postCommits: post,
		postRate:    float64(post) / phaseLen.Seconds(),
	}
	if remote+localN > 0 {
		res.remoteFrac = float64(remote) / float64(remote+localN)
	}
	if lp != nil {
		lp.Stop()
		res.migrations = lp.Completed
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.postP95 = lats[len(lats)*95/100]
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		tb.Fatalf("skewed load broke consistency: %v", err)
	}
	cl.Shutdown()
	return res
}

// TestAdaptiveBeatsStatic is the PR's acceptance gate: after the
// locality shift, adaptive placement must deliver at least 1.5× the
// static throughput or cut p95 latency by at least 30%. It must also
// actually migrate — a run that wins without moving anything would be
// measuring noise.
func TestAdaptiveBeatsStatic(t *testing.T) {
	static := runSkewedLoad(t, false, 0.9)
	adaptive := runSkewedLoad(t, true, 0.9)
	t.Logf("static:   %d commits post-shift (%.1f/s), p95 %v, %.0f%% remote",
		static.postCommits, static.postRate, static.postP95, 100*static.remoteFrac)
	t.Logf("adaptive: %d commits post-shift (%.1f/s), p95 %v, %d migrations, %.0f%% remote",
		adaptive.postCommits, adaptive.postRate, adaptive.postP95,
		adaptive.migrations, 100*adaptive.remoteFrac)
	if adaptive.migrations == 0 {
		t.Fatal("adaptive run completed no migrations (vacuous comparison)")
	}
	throughputWin := adaptive.postRate >= 1.5*static.postRate
	latencyWin := static.postP95 > 0 &&
		float64(adaptive.postP95) <= 0.7*float64(static.postP95)
	if !throughputWin && !latencyWin {
		t.Fatalf("adaptive placement shows no win: throughput %.1f/s vs %.1f/s, p95 %v vs %v",
			adaptive.postRate, static.postRate, adaptive.postP95, static.postP95)
	}
}

// BenchmarkAdaptivePlacement measures the post-shift window of the
// skewed closed-loop workload under static and adaptive placement.
// Virtual-time throughput and latency are deterministic per mode, so
// -benchtime=1x is enough; the numbers land in BENCH_pr9.json.
func BenchmarkAdaptivePlacement(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"static", false}, {"adaptive", true}} {
		for _, skew := range []float64{0.6, 0.9} {
			b.Run(fmt.Sprintf("%s/skew=%g", mode.name, skew), func(b *testing.B) {
				var res loadResult
				for i := 0; i < b.N; i++ {
					res = runSkewedLoad(b, mode.adaptive, skew)
				}
				b.ReportMetric(res.postRate, "commits/s")
				b.ReportMetric(float64(res.postP95)/float64(time.Millisecond), "p95-ms")
				b.ReportMetric(float64(res.migrations), "migrations")
				b.ReportMetric(res.remoteFrac, "remote-frac")
			})
		}
	}
}
