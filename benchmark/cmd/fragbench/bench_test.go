package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/deploy"
	"fragdb/internal/obs"
)

// boundsPath is bounds.json seen from this package's directory.
var boundsPath = filepath.Join("..", "..", "bounds.json")

// smokePlan is a workload with a window of about a second.
func smokePlan(t *testing.T, name string, traced bool) plan {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return planFor(w, 7, 1, traced)
}

// checkMetrics asserts every named metric is present, finite and in
// range, and that the run was correct with nothing failed.
func checkMetrics(t *testing.T, res *result, names []string) {
	t.Helper()
	if res.checkErr != nil {
		t.Fatalf("%s: replica-state check: %v", res.workload, res.checkErr)
	}
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("%s: attempted %d, failed %d", res.workload, res.attempted, res.failed)
	}
	for _, name := range names {
		m, ok := res.find(name)
		v := m.Value
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.workload, name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", res.workload, name, v)
		case strings.HasSuffix(name, "_share") && (v < 0 || v > 1):
			t.Errorf("%s: share %s = %v", res.workload, name, v)
		case name != "failed_share" && v <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", res.workload, name, v)
		}
	}
	if _, err := contractLine(res); err != nil {
		t.Errorf("%s: contract line: %v", res.workload, err)
	}
}

// gateNames lists the end-to-end metrics a workload must report: the
// contract's and its gates in bounds.json.
func gateNames(t *testing.T, w string) []string {
	t.Helper()
	bounds, err := readBounds(boundsPath)
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string(nil), contract[false]...)
	for name := range bounds.Gates[w] {
		names = append(names, name)
	}
	return names
}

func TestInprocWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"direct_mixed", "direct_remote", "partition_heal"} {
		t.Run(name, func(t *testing.T) {
			res, err := runOnce(context.Background(), smokePlan(t, name, false), "", "")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, gateNames(t, name))
			if name != "partition_heal" {
				return
			}
			// Vacuity guard: the cut must really have dropped frames, or
			// heal_converge_ms measured nothing.
			if m, _ := res.find("dropped_in_cut"); m.Value <= 0 {
				t.Errorf("partition dropped %v sends: node 0 was never cut off", m.Value)
			}
		})
	}
}

func TestTracedRunFillsEveryLayer(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runOnce(context.Background(), smokePlan(t, "direct_remote", true), "", spans)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, append(contract[true],
		"submit_block_ms", "loop_wait_ms", "engine_ms", "local_op_ms", "remote_op_ms",
		"wire_transit_ms", "apply_ms", "tcp_send_us", "frames_per_commit",
		"encode_ns:broadcast.Data{txn.Quasi}", "decode_ns:core.lockReqMsg"))
	if m, _ := res.find("layer_sum_share"); math.Abs(m.Value-1) > 0.15 {
		t.Errorf("layer self times sum to %.2f of the traced commit latency", m.Value)
	}
	buf, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(buf), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span file: %v in %q", err, line)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent == "" {
			roots[s.Name] = true
		}
	}
	if !roots["op"] || !roots["replicate"] {
		t.Errorf("span file has roots %v, want op and replicate", roots)
	}
}

func TestHTTPWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns hanode")
	}
	hanode := filepath.Join(t.TempDir(), "hanode")
	if out, err := exec.Command("go", "build", "-o", hanode, "fragdb/cmd/hanode").CombinedOutput(); err != nil {
		t.Fatalf("build hanode: %v\n%s", err, out)
	}
	res, err := runOnce(context.Background(), smokePlan(t, "http_mixed", true), hanode, "")
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, append(gateNames(t, "http_mixed"), append(contract[true], "ingest_self_ms")...))
}

// driveFixed submits the first n operations of a seeded stream, waits
// for them and for the replicas to agree, and returns node 0's state.
func driveFixed(t *testing.T, nds []*deploy.Node, n int) replicaState {
	t.Helper()
	s := &opStream{rng: rand.New(rand.NewSource(3)), mix: mixA2}
	acks := make(chan core.TxnResult, n)
	for i := 0; i < n; i++ {
		g := s.next()
		if err := nds[g.node].Do(g.op, func(r core.TxnResult) { acks <- r }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if r := <-acks; !r.Committed {
			t.Fatalf("operation aborted: %v", r.Err)
		}
	}
	// BALANCES included: with n this small the central office is done
	// within the poll.
	var states [nodes]replicaState
	ok := poll(context.Background(), 5*time.Millisecond, func() bool {
		for i, nd := range nds {
			st, err := readState(nd)
			if err != nil {
				t.Fatal(err)
			}
			states[i] = st
		}
		total := states[0].balances - initialBalances
		var activity int64
		for _, a := range states[0].activity {
			activity += a
		}
		return states[0] == states[1] && states[1] == states[2] && total == activity
	})
	if !ok {
		t.Fatalf("replicas did not agree: %+v", states)
	}
	return states[0]
}

// TestTapTransparent runs the same operations on a cluster behind the
// taps and on one built by deploy.NewTCP alone: the converged state
// must be identical.
func TestTapTransparent(t *testing.T) {
	tapped, err := startInproc("", clock{base: time.Now()}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer tapped.close()
	withTap := driveFixed(t, tapped.nodes[:], 400)

	var plain []*deploy.Node
	var lns []net.Listener
	var addrs []string
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i := 0; i < nodes; i++ {
		nd, err := deploy.NewTCP(deploy.Config{ID: i, Addrs: addrs, Seed: engineSeed, Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		plain = append(plain, nd)
	}
	if without := driveFixed(t, plain, 400); without != withTap {
		t.Fatalf("tap changed the outcome:\n with    %+v\n without %+v", withTap, without)
	}
	if withTap.counter == 0 || withTap.queue == 0 || withTap.balances == initialBalances {
		t.Fatalf("nothing happened: %+v", withTap)
	}
}

// TestBrokenCheckFails drops one acknowledged operation from the
// expected sums: the check must notice, and the command must fail.
func TestBrokenCheckFails(t *testing.T) {
	c, err := startInproc("", clock{base: time.Now()}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := tally{bumps: nodes} // the canaries
	if err := c.check(want); err != nil {
		t.Fatalf("honest check failed: %v", err)
	}
	want.bumps--
	err = c.check(want)
	if err == nil {
		t.Fatal("check passed with an acknowledged bump missing from the expected sums")
	}
	res := &result{workload: "direct_mixed", attempted: 1, checkErr: err}
	for _, name := range contract[false] {
		res.add("", name, "x", 1, 0)
	}
	var stdout, stderr bytes.Buffer
	if emit(res, options{}, &stdout, &stderr) == nil {
		t.Fatal("command succeeded although the check failed")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Fatalf("contract line does not say correct:false: %s", stdout.String())
	}
}

func TestOpStreamIsSeeded(t *testing.T) {
	draw := func(seed int64) []genOp {
		s := &opStream{rng: rand.New(rand.NewSource(seed)), mix: mixA2}
		var ops []genOp
		for i := 0; i < 200; i++ {
			ops = append(ops, s.next())
		}
		return ops
	}
	if !reflect.DeepEqual(draw(5), draw(5)) {
		t.Fatal("same seed, different operations")
	}
	if reflect.DeepEqual(draw(5), draw(6)) {
		t.Fatal("different seeds, same operations")
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, since that is how the driver
// computes spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, med, q3 := quartiles(c.v)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cps ...float64) string {
		var rs []obs.BenchResult
		for _, v := range cps {
			rs = append(rs, obs.BenchResult{Name: "fragbench/direct_mixed",
				Metrics: map[string]float64{"commits_per_s": v, "failed_share": 0}})
		}
		path := filepath.Join(dir, name)
		if err := writeBenchFile(path, 0, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := boundsFile{Gates: map[string]map[string]gate{"direct_mixed": {
		"commits_per_s": {Better: "higher", Bound: 0.1},
		"failed_share":  {Better: "lower", Bound: 0.02, Absolute: true},
	}}}
	base := write("a.json", 1000, 1010, 990)
	for _, c := range []struct {
		name    string
		cps     []float64
		verdict string
		worse   bool
	}{
		{"same.json", []float64{1005, 995, 1000}, "same", false},
		{"worse.json", []float64{800, 810, 790}, "worse", true},
		{"better.json", []float64{1200, 1210, 1190}, "better", false},
		{"noisy.json", []float64{700, 1000, 1300}, "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compare(&out, bounds, base, write(c.name, c.cps...))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "commits_per_s") {
				row = line
			}
		}
		if worse != c.worse || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: worse=%v, row %q; want worse=%v, verdict %s", c.name, worse, row, c.worse, c.verdict)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, bounds.json and
// the code naming the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(bj.EndToEnd); !reflect.DeepEqual(got, contract[false]) {
		t.Errorf("end_to_end is %v, the code prints %v", got, contract[false])
	}
	if got := names(bj.PerLayer); !reflect.DeepEqual(got, contract[true]) {
		t.Errorf("per_layer is %v, the code prints %v", got, contract[true])
	}
	bounds, err := readBounds(boundsPath)
	if err != nil {
		t.Fatal(err)
	}
	for w := range bounds.Gates {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("bounds.json gates unknown workload %q", w)
		}
	}
}
