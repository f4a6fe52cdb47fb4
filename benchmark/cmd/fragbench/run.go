package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Set-up is repeated and its median reported: one sample of a few
// milliseconds would be all scheduler noise. Spawning processes costs
// ~50x what in-process nodes do, hence fewer repeats.
const (
	setupRepsInproc = 31
	setupRepsHTTP   = 9
)

// runOnce sets a cluster up (several times, keeping the last), drives
// the plan's load, waits for the cluster to quiesce, checks every
// replica against the acknowledged operations and assembles the
// metrics. spanPath, when set on a traced run, receives the spans.
// Cancelling ctx cuts the run short: the cluster is still shut down and
// waited for, and the context's error returned.
func runOnce(ctx context.Context, p plan, hanode, spanPath string) (*result, error) {
	res := &result{workload: p.w.name, seed: p.seed, traced: p.traced, window: p.window.Seconds()}
	clk := clock{base: time.Now()}
	var rec *recorder
	if p.traced {
		rec = &recorder{}
	}

	var (
		setups []float64
		ic     *inproc
		hc     *httpCluster
		cl     interface {
			ready(context.Context) error
			close()
		}
	)
	reps := setupRepsInproc
	if p.w.http {
		reps = setupRepsHTTP
	}
	for i := 0; i < reps; i++ {
		begin := time.Now()
		var err error
		if p.w.http {
			hc, err = startHTTP(ctx, hanode, p.w.clients)
			cl = hc
		} else {
			ic, err = startInproc(p.w.option, clk, p.traced)
			cl = ic
		}
		if err != nil {
			return nil, err
		}
		if err := cl.ready(ctx); err != nil {
			cl.close()
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		if i < reps-1 {
			cl.close()
		}
	}

	var load loadOut
	if p.w.http {
		var err error
		if load, err = driveHTTP(ctx, hc, p, clk); err != nil {
			hc.close()
			return nil, err
		}
	} else {
		load = driveInproc(ctx, ic, p, clk)
	}
	loadEnd := clk.now()

	// Quiesce, then check. The canaries of set-up are acknowledged
	// bumps too.
	want := load.acked
	want.bumps += nodes
	var lagMS []float64
	var taps []*tap
	if p.w.http {
		res.checkErr = hc.check(ctx, want)
		load.drainMS = msOf(clk.now() - loadEnd)
		if end, err := hc.counters(); err == nil {
			load.heapMB = end["go_heap_alloc_bytes"] / (1 << 20)
		}
		hc.close()
		load.cpu = hc.cpu()
		if rec != nil {
			rec.httpSpans(&load)
		}
	} else {
		front := ic.frontier()
		if poll(ctx, 200*time.Microsecond, func() bool { return ic.caughtUp(front) }) {
			load.drainMS = msOf(clk.now() - loadEnd)
			res.checkErr = ic.check(want)
		} else {
			res.checkErr = fmt.Errorf("state check: replicas did not catch up within %v of the load ending", settleTimeout)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		load.heapMB = float64(ms.HeapAlloc) / (1 << 20)
		ic.close()
		taps = ic.taps[:]
		lagMS = replication(&load, taps, rec)
		if rec != nil {
			rec.opSpans(&load)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	measure(res, p, &load, setups, lagMS)
	layers(res, p, &load, rec, taps)
	if rec != nil && spanPath != "" {
		f, err := os.Create(spanPath)
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		if err := rec.write(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("span file: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
	}
	return res, nil
}

// measure computes the end-to-end metrics from the window's operations.
func measure(res *result, p plan, load *loadOut, setups, lagMS []float64) {
	// Throughput is the median over the window's seconds: a stall (a
	// garbage collection of the ever-growing heap, a repair burst)
	// empties one second without moving the median, where it would move
	// the window's total by several percent. A second's rate is its
	// acknowledgements over the time from its first to the next
	// second's first, so it is measured, not a whole number.
	type second struct {
		acks  float64
		first int64
	}
	seconds := make([]second, int(p.window.Seconds())+1)
	var lat []float64
	within := 0
	for _, op := range load.ops {
		if !op.ok {
			res.failed++
			continue
		}
		ms := msOf(op.end - op.due)
		lat = append(lat, ms)
		if ms <= sloMS {
			within++
		}
		if i := int((op.end - load.ws) / int64(time.Second)); i < len(seconds) {
			s := &seconds[i]
			if s.acks++; s.first == 0 || op.end < s.first {
				s.first = op.end
			}
		}
	}
	var rates []float64
	prev := -1
	for i, s := range seconds {
		if s.acks == 0 {
			continue // a second without acknowledgements stretches the one before
		}
		if prev >= 0 {
			rates = append(rates, seconds[prev].acks/(float64(s.first-seconds[prev].first)/1e9))
		}
		prev = i
	}
	res.attempted = len(load.ops)
	sort.Float64s(lat)
	n := len(lat)
	attempted := float64(max(res.attempted, 1))

	perSec := median(rates)
	if len(rates) == 0 { // a window too short to hold two seconds' first acknowledgements
		perSec = float64(n) / p.window.Seconds()
	}
	res.add("", "commits_per_s", "ops/s", perSec, len(rates))
	res.add("", "commit_p50_ms", "ms", quantile(lat, 0.5), n)
	res.add("", "within_slo_share", "share", float64(within)/attempted, res.attempted)
	if lagMS != nil {
		sort.Float64s(lagMS)
		res.add("", "replica_lag_p50_ms", "ms", quantile(lagMS, 0.5), len(lagMS))
	}
	if len(load.heals) > 0 {
		var took []float64
		for _, h := range load.heals {
			if h.caughtUp == 0 {
				if res.checkErr == nil {
					res.checkErr = fmt.Errorf("replicas did not catch up within %v of a heal", settleTimeout)
				}
				continue
			}
			took = append(took, msOf(h.caughtUp-h.at))
		}
		res.add("", "heal_converge_ms", "ms", median(took), len(took))
	}
	res.add("", "failed_share", "share", float64(res.failed)/attempted, res.attempted)
	res.add("", "setup_s", "s", median(setups), len(setups))

	// Informational: the tails swing several-fold between identical
	// runs, which is why the tail is gated through within_slo_share.
	info := func(name, unit string, v float64, n int, note string) {
		res.metrics = append(res.metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
	}
	info("commit_p99_ms", "ms", quantile(lat, 0.99), n, "informational")
	if pct, v, ok := topPercentile(lat); ok {
		info("commit_ptop_ms", "ms", v, n, fmt.Sprintf("informational: p%.4f, the highest with 10 samples beyond", pct))
	}
	if lagMS != nil {
		info("replica_lag_p99_ms", "ms", quantile(lagMS, 0.99), len(lagMS), "informational")
	}
	if len(load.late) > 0 {
		late := make([]float64, len(load.late))
		for i, ns := range load.late {
			late[i] = msOf(ns)
		}
		sort.Float64s(late)
		info("gen_late_p99_ms", "ms", quantile(late, 0.99), len(late), "informational: how late the open-loop generator issued")
	}
}
