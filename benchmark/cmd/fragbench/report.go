package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"fragdb/internal/obs"
)

// contract lists, by name, the metrics BENCHMARK.json declares: the
// end-to-end ones an untraced run prints in its final JSON line and
// the per-layer ones a traced run prints. Every workload reports each
// of them, which is why the metrics only some workloads have
// (replica_lag_p50_ms, heal_converge_ms) and failed_share, which is 0
// and carried by the line's attempted/failed counts, are gated through
// bounds.json and -compare instead.
var contract = map[bool][]string{
	false: {"commits_per_s", "commit_p50_ms", "within_slo_share", "setup_s"},
	true:  {"engine_commit_ms", "msgs_per_commit", "quasi_applied_per_commit", "cpu_us_per_commit", "live_heap_mb"},
}

// contractLine renders the run as the single JSON object the driver
// reads off the last line of standard output.
func contractLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.checkErr == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, name := range contract[res.traced] {
		m, ok := res.find(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// layerOrder lists the layers along the commit path, the order the
// table prints them in.
var layerOrder = []string{"", "end to end", "cmd/hanode", "deploy", "rtnet.Loop", "core+lock+storage",
	"workload", "broadcast", "wire", "rtnet.TCP", "replica apply", "process"}

// printTable writes every metric by name and unit, end-to-end first,
// then grouped by layer.
func printTable(w io.Writer, res *result) {
	rank := make(map[string]int, len(layerOrder))
	for i, l := range layerOrder {
		rank[l] = i
	}
	metrics := append([]metric(nil), res.metrics...)
	sort.SliceStable(metrics, func(i, j int) bool { return rank[metrics[i].Layer] < rank[metrics[j].Layer] })

	mode := "untraced: end-to-end numbers are the ones to quote"
	if res.traced {
		mode = "traced: per-layer numbers are the ones to quote"
	}
	fmt.Fprintf(w, "\nfragbench %s  seed %d  window %.1fs  (%s)\n", res.workload, res.seed, res.window, mode)
	layer := ""
	for _, m := range metrics {
		if m.Layer != layer {
			layer = m.Layer
			fmt.Fprintf(w, "  [%s]\n", layer)
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  attempted %d, failed %d; replica-state check: ", res.attempted, res.failed)
	if res.checkErr != nil {
		fmt.Fprintf(w, "FAILED: %v\n", res.checkErr)
	} else {
		fmt.Fprintln(w, "passed")
	}
}

// benchName is the result name in the fragdb-bench/1 trajectory.
func benchName(res *result) string {
	name := "fragbench/" + res.workload
	if res.traced {
		name += "/traced"
	}
	return name
}

// benchResult renders the run under the fragdb-bench/1 schema. Metrics
// are keyed by name; correct is 1 or 0.
func benchResult(res *result) obs.BenchResult {
	br := obs.BenchResult{Name: benchName(res), Iters: int64(res.attempted), Metrics: map[string]float64{}}
	for _, m := range res.metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			br.Metrics[m.Name] = m.Value
		}
	}
	br.Metrics["seed"] = float64(res.seed)
	br.Metrics["correct"] = 0
	if res.checkErr == nil {
		br.Metrics["correct"] = 1
	}
	return br
}

// writeBenchFile writes results as a fragdb-bench/1 file. NewBenchFile
// sorts by name and keeps repeated runs of one workload side by side.
func writeBenchFile(path string, pr int, results []obs.BenchResult) error {
	bf := obs.NewBenchFile(pr, "fragbench", "", time.Now().UnixMilli(), results)
	buf, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readBenchFile(path string) (obs.BenchFile, error) {
	var bf obs.BenchFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(buf, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != obs.BenchSchema {
		return bf, fmt.Errorf("%s: schema %q, want %q", path, bf.Schema, obs.BenchSchema)
	}
	return bf, nil
}
