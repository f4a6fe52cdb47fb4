package rtnet

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fragdb/internal/metrics"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
)

func debugFixture() DebugVars {
	c := &metrics.Counters{}
	c.Offered.Add(10)
	c.Committed.Add(8)
	c.Aborted.Add(2)
	c.Deadlocks.Add(1)
	c.CommitLatency.Observe(3 * time.Millisecond)
	c.CommitLatency.Observe(40 * time.Millisecond)
	c.QuasiLag.Observe(7 * time.Millisecond)
	b := &metrics.Broadcast{}
	b.LogEntries.Store(17)
	b.CompactedSeqs.Add(5)
	b.DataSends.Add(3)
	b.PayloadsSent.Add(12)

	var now simtime.Time
	clock := func() simtime.Time { now = now.Add(time.Millisecond); return now }
	tracers := make([]*trace.Recorder, 3)
	for i := range tracers {
		if i == 2 {
			continue // node 2 has tracing disabled
		}
		tracers[i] = trace.NewRecorder(0, 16, clock)
	}
	tracers[1].Emit(trace.Event{Kind: trace.KSubmit, Note: "first"})
	tracers[1].Emit(trace.Event{Kind: trace.KCommit, Note: "second"})

	reg := metrics.NewRegistry()
	reg.IncRead("BALANCES", 1)
	reg.IncRead("BALANCES", 1)
	reg.IncWrite("BALANCES", 0)
	reg.IncCommit("BALANCES", 0)
	reg.ObserveCommitLatency("BALANCES", 0, 5*time.Millisecond)
	reg.IncAbort("BALANCES", 2, "timeout")
	reg.IncLockWait("BALANCES", 1)
	reg.IncRemoteDeny("BALANCES", 2)
	reg.IncApply("CTR(1)", 1)
	reg.IncForward("CTR(1)", 1)
	reg.SetFragInfo("BALANCES", metrics.FragInfo{Option: "read-locks"})
	reg.SetFragInfo("CTR(1)", metrics.FragInfo{Option: "unrestricted", Commutative: true})
	tcp := &TCPStats{}
	tcp.dropSend(&tcp.DropRule)
	tcp.dropSend(&tcp.DropRule)
	tcp.dropSend(&tcp.QueueFull)
	return DebugVars{Counters: c, Broadcast: b, Registry: reg, Tracers: tracers, Runtime: true,
		LockTableEntries: func() int { return 3 }, TCP: tcp}
}

func get(t *testing.T, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(NewDebugHandler(debugFixture()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	code, body := get(t, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"fragdb_txns_offered_total 10",
		"fragdb_txns_committed_total 8",
		"fragdb_txns_deadlocks_total 1",
		"# TYPE fragdb_commit_latency_seconds histogram",
		`fragdb_commit_latency_seconds_bucket{le="+Inf"} 2`,
		"fragdb_commit_latency_seconds_count 2",
		`fragdb_quasi_lag_seconds_bucket{le="+Inf"} 1`,
		"fragdb_broadcast_log_entries 17",
		"fragdb_broadcast_compacted_seqs 5",
		"fragdb_broadcast_data_sends_total 3",
		"fragdb_broadcast_payloads_sent_total 12",
		"fragdb_broadcast_amortization 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// Cumulative bucket counts never decrease.
	if !strings.Contains(body, "fragdb_commit_latency_seconds_bucket") {
		t.Fatalf("no latency buckets rendered:\n%s", body)
	}
}

func TestRegistryMetricsEndpoint(t *testing.T) {
	code, body := get(t, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`fragdb_frag_reads_total{frag="BALANCES",node="1"} 2`,
		`fragdb_frag_writes_total{frag="BALANCES",node="0"} 1`,
		`fragdb_frag_commits_total{frag="BALANCES",node="0"} 1`,
		`fragdb_frag_aborts_total{frag="BALANCES",node="2",cause="timeout"} 1`,
		`fragdb_frag_lock_waits_total{frag="BALANCES",node="1"} 1`,
		`fragdb_frag_remote_denials_total{frag="BALANCES",node="2"} 1`,
		`fragdb_frag_applies_total{frag="CTR(1)",node="1"} 1`,
		`fragdb_frag_forwards_total{frag="CTR(1)",node="1"} 1`,
		`fragdb_frag_commit_latency_seconds_count{frag="BALANCES",node="0"} 1`,
		`fragdb_frag_info{frag="BALANCES",option="read-locks",commutative="false"} 1`,
		`fragdb_frag_info{frag="CTR(1)",option="unrestricted",commutative="true"} 1`,
		"# TYPE fragdb_lock_table_entries gauge",
		"fragdb_lock_table_entries 3",
		"# TYPE fragdb_tcp_send_dropped_total counter",
		`fragdb_tcp_send_dropped_total{cause="queue_full"} 1`,
		`fragdb_tcp_send_dropped_total{cause="control_full"} 0`,
		`fragdb_tcp_send_dropped_total{cause="drop_rule"} 2`,
		`fragdb_tcp_send_dropped_total{cause="closed"} 0`,
		`fragdb_tcp_send_dropped_total{cause="encode"} 0`,
		"# TYPE fragdb_go_goroutines gauge",
		"fragdb_go_heap_alloc_bytes",
		"fragdb_go_gc_pause_total_seconds",
		"fragdb_go_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full body:\n%s", body)
	}
}

// TestEveryFamilyRendered holds the exporter to the metrics package's
// family list: it reads every Fam* constant out of internal/metrics'
// source, so a family added there and never rendered here fails, and
// requires /metrics — with every DebugVars field set and a sample in
// every registry vector — to declare each one.
func TestEveryFamilyRendered(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "metrics", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var fams []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Fam") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s: family constant %s is not a string literal", fset.Position(id.Pos()), id.Name)
					}
					fam, _ := strconv.Unquote(lit.Value)
					fams = append(fams, fam)
				}
			}
		}
	}
	if len(fams) == 0 {
		t.Fatal("no Fam* constants found in internal/metrics")
	}
	_, body := get(t, "/metrics")
	for _, fam := range fams {
		if !strings.Contains(body, "# TYPE fragdb_"+fam+" ") {
			t.Errorf("/metrics declares no family fragdb_%s", fam)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	type nodeTrace struct {
		Node   int `json:"node"`
		Events []struct {
			Kind string `json:"kind"`
			Note string `json:"note"`
		} `json:"events"`
	}

	code, body := get(t, "/trace?node=1&n=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var got []nodeTrace
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(got) != 1 || got[0].Node != 1 || len(got[0].Events) != 1 {
		t.Fatalf("want node 1 with 1 event, got %+v", got)
	}
	if got[0].Events[0].Kind != "commit" || got[0].Events[0].Note != "second" {
		t.Errorf("tail should be the most recent event, got %+v", got[0].Events[0])
	}

	// Without node=, every recording node appears (node 2 is disabled).
	code, body = get(t, "/trace")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	got = nil
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 recording nodes, got %d: %+v", len(got), got)
	}

	if code, _ := get(t, "/trace?node=9"); code != 400 {
		t.Errorf("out-of-range node: want 400, got %d", code)
	}
	if code, _ := get(t, "/trace?n=-1"); code != 400 {
		t.Errorf("negative n: want 400, got %d", code)
	}
}

// TestMetricsConcurrentScrape scrapes /metrics while writers hammer the
// latency histogram, and checks on every scrape that the histogram
// lines are self-consistent: the le="+Inf" bucket equals the _count
// line and equals the last cumulative bucket. Before histograms were
// rendered from a snapshot, the +Inf bucket (read via Count()) raced
// ahead of or behind the per-bucket reads.
func TestMetricsConcurrentScrape(t *testing.T) {
	c := &metrics.Counters{}
	srv := httptest.NewServer(NewDebugHandler(DebugVars{Counters: c}))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.CommitLatency.Observe(d * time.Microsecond)
				d = (d*1664525 + 1013904223) % (1 << 18)
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return string(body)
	}
	for i := 0; i < 50; i++ {
		body := scrape()
		var lastCum, inf, count uint64
		var haveInf, haveCount bool
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, "fragdb_commit_latency_seconds") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				continue
			}
			var v uint64
			if _, err := fmt.Sscan(fields[1], &v); err != nil {
				continue // _sum is a float; skip
			}
			switch {
			case strings.Contains(line, `le="+Inf"`):
				inf, haveInf = v, true
			case strings.HasPrefix(line, "fragdb_commit_latency_seconds_bucket"):
				if v < lastCum {
					t.Fatalf("scrape %d: cumulative bucket decreased: %s\n%s", i, line, body)
				}
				lastCum = v
			case strings.HasPrefix(line, "fragdb_commit_latency_seconds_count"):
				count, haveCount = v, true
			}
		}
		if !haveInf || !haveCount {
			t.Fatalf("scrape %d: missing +Inf or _count lines:\n%s", i, body)
		}
		if inf != count || inf != lastCum {
			t.Fatalf("scrape %d: inconsistent histogram: last bucket %d, +Inf %d, count %d",
				i, lastCum, inf, count)
		}
	}
}
