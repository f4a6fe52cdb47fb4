package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"

	"fragdb/internal/obs"
)

// gate is one (workload, metric) pair -compare holds a change to.
type gate struct {
	Better string `json:"better"` // "higher" or "lower"
	// Bound is how much worse than the baseline's median the metric may
	// get: a share of that median, or — for the shares that sit at 0 or
	// 1, where a ratio means nothing — an absolute difference.
	Bound    float64 `json:"bound"`
	Absolute bool    `json:"absolute,omitempty"`
	// Why says, for a bound wider than the default 10 %, what
	// calibration showed.
	Why string `json:"why,omitempty"`
}

// calibration is what -calibrate measured for one gate.
type calibration struct {
	Runs   int     `json:"runs"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median, or q3-q1 for an absolute gate
}

// boundsFile is benchmark/bounds.json: the per-workload gates, which
// BENCHMARK.json cannot hold because every metric it declares must
// exist on every workload, and the last calibration.
type boundsFile struct {
	Note        string                            `json:"note"`
	Gates       map[string]map[string]gate        `json:"gates"`
	Seconds     float64                           `json:"calibrated_seconds,omitempty"`
	Calibration map[string]map[string]calibration `json:"calibration,omitempty"`
}

func (o options) boundsPath() string { return filepath.Join(o.root, "benchmark", "bounds.json") }

func readBounds(path string) (boundsFile, error) {
	var bf boundsFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(buf, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// contractBounds reads the end-to-end bounds out of BENCHMARK.json.
func contractBounds(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range bj.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// child runs one workload once in a fresh process of this same binary,
// as the driver does, and returns its results. The child's table goes
// to stderr. A child whose replica-state check failed still reports;
// the caller sees correct = 0.
func child(ctx context.Context, o options, w string, seed int64, seconds float64, trace int, stderr io.Writer) (obs.BenchResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return obs.BenchResult{}, err
	}
	tmp := filepath.Join(o.buildDir(), fmt.Sprintf("run-%s-%d-%d.json", w, seed, trace))
	defer os.Remove(tmp)
	cmd := exec.CommandContext(ctx, exe, "-root", o.root, "-workload", w,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", tmp)
	cmd.Stderr = stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) } // let it stop its hanodes
	cmd.WaitDelay = settleTimeout
	runErr := cmd.Run()
	bf, err := readBenchFile(tmp)
	if err != nil || len(bf.Results) != 1 {
		return obs.BenchResult{}, fmt.Errorf("%s seed %d: no result (%v)", w, seed, errors.Join(runErr, err))
	}
	return bf.Results[0], nil
}

// selected is the workload -workload names, or all of them.
func selected(o options) ([]workload, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return []workload{w}, nil
}

// runAll runs every workload untraced and then, for a third as long,
// traced, and prints the end-to-end summary with the tracing overhead.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) error {
	var all []obs.BenchResult
	failed := false
	fmt.Fprintf(stdout, "%-15s %-22s %14s %s\n", "workload", "metric", "value", "unit")
	for _, w := range workloads {
		plain, err := child(ctx, o, w.name, o.seed, o.seconds, 0, stderr)
		if err != nil {
			return err
		}
		traced, err := child(ctx, o, w.name, o.seed, max(o.seconds/3, 3), 1, stderr)
		if err != nil {
			return err
		}
		// What recording spans costs: the throughput (closed loops) and
		// median latency the traced run lost against the untraced one.
		traced.Metrics["trace_overhead_share"] = 1 - traced.Metrics["commits_per_s"]/plain.Metrics["commits_per_s"]
		traced.Metrics["trace_overhead_p50_share"] = traced.Metrics["commit_p50_ms"]/plain.Metrics["commit_p50_ms"] - 1
		for _, m := range endToEnd {
			if v, ok := plain.Metrics[m.name]; ok {
				fmt.Fprintf(stdout, "%-15s %-22s %14.6g %s\n", w.name, m.name, v, m.unit)
			}
		}
		fmt.Fprintf(stdout, "%-15s %-22s %14.6g %s\n", w.name, "trace_overhead_share", traced.Metrics["trace_overhead_share"], "share")
		failed = failed || plain.Metrics["correct"] != 1 || traced.Metrics["correct"] != 1
		all = append(all, plain, traced)
	}
	fmt.Fprintln(stdout, "claim: null (this benchmark defines the baseline and claims no gain)")
	if o.out != "" {
		if err := writeBenchFile(o.out, o.pr, all); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a replica-state check failed")
	}
	return nil
}

// endToEnd names the end-to-end metrics in table order with their
// units, for the summaries.
var endToEnd = []struct{ name, unit string }{
	{"commits_per_s", "ops/s"}, {"commit_p50_ms", "ms"}, {"within_slo_share", "share"},
	{"replica_lag_p50_ms", "ms"}, {"heal_converge_ms", "ms"}, {"failed_share", "share"}, {"setup_s", "s"},
}

// calibrate runs each workload o.calibrate times, each with another
// seed, prints per gate the median, quartiles and spread, and holds the
// recorded bounds — bounds.json's gates and BENCHMARK.json's
// end_to_end — against them. Only if none is tighter than the measured
// spread does it record the calibration in bounds.json; otherwise it
// refuses and fails.
func calibrate(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if o.calibrate < 2 {
		return errors.New("-calibrate needs at least 2 runs to have a spread")
	}
	ws, err := selected(o)
	if err != nil {
		return err
	}
	bounds, err := readBounds(o.boundsPath())
	if err != nil {
		return err
	}
	declared, err := contractBounds(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var all []obs.BenchResult
	var tight []string
	measured := make(map[string]map[string]calibration)
	fmt.Fprintf(stdout, "%-15s %-20s %4s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, w := range ws {
		var runs []obs.BenchResult
		for i := 0; i < o.calibrate; i++ {
			r, err := child(ctx, o, w.name, o.seed+int64(i), o.seconds, 0, stderr)
			if err != nil {
				return err
			}
			if r.Metrics["correct"] != 1 {
				return fmt.Errorf("%s seed %d: replica-state check failed", w.name, o.seed+int64(i))
			}
			runs = append(runs, r)
		}
		all = append(all, runs...)
		measured[w.name] = make(map[string]calibration)
		for _, m := range endToEnd {
			g, gated := bounds.Gates[w.name][m.name]
			if !gated {
				continue
			}
			c := calibrationOf(runs, m.name, g.Absolute)
			measured[w.name][m.name] = c
			bound := g.Bound
			if d, ok := declared[m.name]; ok && !g.Absolute {
				bound = min(bound, d) // BENCHMARK.json's bound covers every workload
			}
			fmt.Fprintf(stdout, "%-15s %-20s %4d %12.6g %12.6g %12.6g %8.4f %8.4f\n",
				w.name, m.name, c.Runs, c.Q1, c.Median, c.Q3, c.Spread, bound)
			if bound < c.Spread {
				tight = append(tight, fmt.Sprintf("%s/%s: bound %.4f < spread %.4f", w.name, m.name, bound, c.Spread))
			}
		}
	}
	if o.out != "" {
		if err := writeBenchFile(o.out, o.pr, all); err != nil {
			return err
		}
	}
	if len(tight) > 0 {
		return fmt.Errorf("refusing to record bounds tighter than the measured spread: %v; "+
			"lengthen the window, or widen the bound or drop the gate in bounds.json and say why", tight)
	}
	if bounds.Calibration == nil {
		bounds.Calibration = make(map[string]map[string]calibration)
	}
	for w, m := range measured {
		bounds.Calibration[w] = m
	}
	bounds.Seconds = o.seconds
	buf, err := json.MarshalIndent(bounds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.boundsPath(), append(buf, '\n'), 0o644)
}

// valuesOf collects one metric over the runs that report it.
func valuesOf(runs []obs.BenchResult, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

func calibrationOf(runs []obs.BenchResult, metric string, absolute bool) calibration {
	v := valuesOf(runs, metric)
	if len(v) < 2 {
		return calibration{Runs: len(v), Spread: math.Inf(1)}
	}
	c := calibration{Runs: len(v)}
	c.Q1, c.Median, c.Q3 = quartiles(v)
	c.Spread = spread(v)
	if absolute {
		c.Spread = c.Q3 - c.Q1
	}
	return c
}

// compare applies bounds.json's gates to two result files — a the
// baseline, b the change — and prints one row per (workload, metric):
// better or worse when the medians differ by more than the bound,
// unresolved when they do not but the run-to-run spread is wider than
// the bound, same otherwise. It reports whether any row is worse.
func compare(stdout io.Writer, bounds boundsFile, pathA, pathB string) (worse bool, err error) {
	a, err := readBenchFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readBenchFile(pathB)
	if err != nil {
		return false, err
	}
	group := func(bf obs.BenchFile) map[string][]obs.BenchResult {
		g := make(map[string][]obs.BenchResult)
		for _, r := range bf.Results {
			g[r.Name] = append(g[r.Name], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	fmt.Fprintf(stdout, "%-15s %-20s %12s %12s %9s %8s  %s\n",
		"workload", "metric", "a median", "b median", "change", "bound", "verdict")
	var names []string
	for w := range bounds.Gates {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		ra, rb := ga["fragbench/"+w], gb["fragbench/"+w]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			g, gated := bounds.Gates[w][m.name]
			if !gated {
				continue
			}
			ca, cb := calibrationOf(ra, m.name, g.Absolute), calibrationOf(rb, m.name, g.Absolute)
			ma, mb := median(valuesOf(ra, m.name)), median(valuesOf(rb, m.name))
			// A side with a single run has no spread of its own; fall
			// back on what -calibrate recorded.
			noise := 0.0
			for _, c := range []calibration{ca, cb} {
				s := c.Spread
				if c.Runs < 2 {
					s = bounds.Calibration[w][m.name].Spread
				}
				noise = max(noise, s)
			}
			change := mb - ma
			if !g.Absolute {
				change /= math.Abs(ma)
			}
			worseBy := change
			if g.Better == "higher" {
				worseBy = -change
			}
			verdict := "same"
			switch {
			case math.IsNaN(worseBy):
				verdict = "unresolved"
			case worseBy > g.Bound:
				verdict, worse = "worse", true
			case -worseBy > g.Bound:
				verdict = "better"
			case noise > g.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-15s %-20s %12.6g %12.6g %+9.4f %8.4f  %s\n", w, m.name, ma, mb, change, g.Bound, verdict)
		}
	}
	return worse, nil
}
