package rtnet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"fragdb/internal/metrics"
	"fragdb/internal/trace"
)

// DebugVars bundles the observability state a live deployment exposes
// over HTTP: the engine counters (with their latency histograms), the
// broadcast gauges, the labeled per-fragment registry, and the per-node
// flight recorders. Any field may be nil; the handler simply omits what
// is absent.
type DebugVars struct {
	Counters  *metrics.Counters
	Broadcast *metrics.Broadcast
	// Registry, when non-nil, adds the labeled per-fragment families
	// (frag_*_total, frag_commit_latency_seconds, frag_info) to
	// /metrics — the access-pattern matrix cmd/haobs consumes.
	Registry *metrics.Registry
	Tracers  []*trace.Recorder
	// LockTableEntries, when non-nil, is sampled on every scrape for the
	// lock_table_entries depth gauge.
	LockTableEntries func() int
	// TCP, when non-nil, adds the transport's dropped sends by cause
	// (tcp_send_dropped_total{cause}).
	TCP *TCPStats
	// Runtime adds Go runtime gauges (goroutines, heap bytes, GC pause
	// total and cycle count) to /metrics, for correlating engine
	// behavior with process health.
	Runtime bool
}

// NewDebugHandler serves the debug endpoints:
//
//	GET /metrics            Prometheus text exposition: counters,
//	                        broadcast gauges, and the commit-latency and
//	                        quasi-lag histograms (cumulative buckets, in
//	                        seconds).
//	GET /trace?node=N&n=M   JSON tail (last M events, default 100) of
//	                        node N's flight recorder; without node=, the
//	                        tails of every recording node.
//
// Reads are safe concurrently with a live cluster: counters are atomic
// and recorder tails copy under the recorder's own lock.
func NewDebugHandler(v DebugVars) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, v)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(w, r, v.Tracers)
	})
	return mux
}

// writePrometheus renders the metrics in the Prometheus text format.
func writePrometheus(w http.ResponseWriter, v DebugVars) {
	if c := v.Counters; c != nil {
		counter := func(name, help string, val uint64) {
			fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s counter\nfragdb_%s %d\n",
				name, help, name, name, val)
		}
		counter("txns_offered_total", "Transactions submitted.", c.Offered.Load())
		counter("txns_committed_total", "Transactions committed.", c.Committed.Load())
		counter("txns_aborted_total", "Transactions aborted.", c.Aborted.Load())
		counter("txns_timedout_total", "Aborts caused by timeout.", c.TimedOut.Load())
		counter("txns_deadlocks_total", "Aborts caused by deadlock detection.", c.Deadlocks.Load())
		counter("txns_wounds_total", "Local transactions wounded by quasi-transactions.", c.Wounds.Load())
		counter("txns_rejected_total", "Submissions refused up front.", c.Rejected.Load())
		counter("quasi_applied_total", "Quasi-transactions installed at remote nodes.", c.QuasiApplied.Load())
		counter("quasi_forwarded_total", "Old-epoch quasi-transactions forwarded.", c.QuasiForwarded.Load())
		counter("corrective_actions_total", "Application-level corrective actions.", c.CorrectiveActions.Load())
		writeHistogram(w, "commit_latency_seconds",
			"Submit-to-commit latency of committed transactions.", &c.CommitLatency)
		writeHistogram(w, "quasi_lag_seconds",
			"Propagation lag of installed quasi-transactions.", &c.QuasiLag)
	}
	if b := v.Broadcast; b != nil {
		gauge := func(name, help string, val int64) {
			fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s gauge\nfragdb_%s %d\n",
				name, help, name, name, val)
		}
		gauge("broadcast_log_entries", "Retained broadcast log entries.", b.LogEntries.Load())
		gauge("broadcast_log_bytes", "Retained broadcast payload bytes.", b.LogBytes.Load())
		gauge("broadcast_compacted_seqs", "Sequence numbers truncated by compaction.", int64(b.CompactedSeqs.Load()))
		gauge("broadcast_snapshots_sent", "Snapshot catch-up offers served.", int64(b.SnapshotsSent.Load()))
		gauge("broadcast_snapshots_installed", "Snapshot catch-up offers accepted.", int64(b.SnapshotsInstalled.Load()))
		gauge("broadcast_pending_dropped", "Out-of-order arrivals dropped.", int64(b.PendingDropped.Load()))
		counter := func(name, help string, val uint64) {
			fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s counter\nfragdb_%s %d\n",
				name, help, name, name, val)
		}
		counter("broadcast_data_sends_total", "Data messages sent (batched or single).", b.DataSends.Load())
		counter("broadcast_payloads_sent_total", "Payloads carried by data messages.", b.PayloadsSent.Load())
		fmt.Fprintf(w, "# HELP fragdb_broadcast_amortization Payloads per data message (batching win).\n"+
			"# TYPE fragdb_broadcast_amortization gauge\nfragdb_broadcast_amortization %g\n",
			b.Amortization())
	}
	writeRegistry(w, v)
	if v.Runtime {
		writeRuntime(w)
	}
}

// writeRegistry renders the metric families the metrics package
// declares: the lock-table depth gauge, the transport's dropped sends
// and the labeled registry's vectors. Every Fam* family must be
// rendered here; TestEveryFamilyRendered fails on one that is not.
func writeRegistry(w http.ResponseWriter, v DebugVars) {
	if v.LockTableEntries != nil {
		fmt.Fprintf(w, "# HELP fragdb_%s Objects with a lock entry (held or awaited) in the lock table.\n# TYPE fragdb_%s gauge\nfragdb_%s %d\n",
			metrics.FamLockTableEntries, metrics.FamLockTableEntries, metrics.FamLockTableEntries, v.LockTableEntries())
	}
	if v.TCP != nil {
		fmt.Fprintf(w, "# HELP fragdb_%s Sends the TCP transport discarded, by cause.\n# TYPE fragdb_%s counter\n",
			metrics.FamTCPSendDropped, metrics.FamTCPSendDropped)
		for _, d := range v.TCP.SendDrops() {
			fmt.Fprintf(w, "fragdb_%s{cause=%q} %d\n", metrics.FamTCPSendDropped, d.Cause, d.N)
		}
	}
	reg := v.Registry
	if reg == nil {
		return
	}
	counterVec := func(name, help string, samples []metrics.CounterSample) {
		fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s counter\n", name, help, name)
		for _, s := range samples {
			fmt.Fprintf(w, "fragdb_%s{frag=%q,node=\"%d\"} %d\n", name, string(s.Frag), int(s.Node), s.Value)
		}
	}
	counterVec(metrics.FamFragReads,
		"Declared reads per fragment and originating node.", reg.Reads.Samples())
	counterVec(metrics.FamFragWrites,
		"Declared writes per fragment and originating node.", reg.Writes.Samples())
	counterVec(metrics.FamFragCommits,
		"Committed transactions per fragment and home node.", reg.Commits.Samples())
	counterVec(metrics.FamFragLockWaits,
		"Lock acquisitions that queued, per fragment and requesting node.", reg.LockWaits.Samples())
	counterVec(metrics.FamFragRemoteDenials,
		"Remote read-lock requests denied, per fragment and requester.", reg.RemoteDenials.Samples())
	counterVec(metrics.FamFragApplies,
		"Quasi-transactions installed, per fragment and origin home.", reg.Applies.Samples())
	counterVec(metrics.FamFragForwards,
		"Old-epoch quasi-transactions forwarded, per fragment and origin.", reg.Forwards.Samples())

	fmt.Fprintf(w, "# HELP fragdb_%s Aborted transactions per fragment, node, and cause.\n# TYPE fragdb_%s counter\n",
		metrics.FamFragAborts, metrics.FamFragAborts)
	for _, s := range reg.Aborts.Samples() {
		fmt.Fprintf(w, "fragdb_%s{frag=%q,node=\"%d\",cause=%q} %d\n",
			metrics.FamFragAborts, string(s.Frag), int(s.Node), s.Cause, s.Value)
	}

	histVec := func(name, help string, samples []metrics.HistSample) {
		fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s histogram\n", name, help, name)
		for _, s := range samples {
			labels := fmt.Sprintf("frag=%q,node=\"%d\"", string(s.Frag), int(s.Node))
			cum := uint64(0)
			for _, b := range s.Snap.Buckets() {
				cum += b.Count
				fmt.Fprintf(w, "fragdb_%s_bucket{%s,le=%q} %d\n",
					name, labels, formatLE(b.Upper.Seconds()), cum)
			}
			fmt.Fprintf(w, "fragdb_%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, s.Snap.Count)
			fmt.Fprintf(w, "fragdb_%s_sum{%s} %g\n", name, labels, s.Snap.Sum.Seconds())
			fmt.Fprintf(w, "fragdb_%s_count{%s} %d\n", name, labels, s.Snap.Count)
		}
	}
	histVec(metrics.FamFragCommitLatency,
		"Submit-to-commit latency per fragment and home node.", reg.CommitLatency.Samples())

	fmt.Fprintf(w, "# HELP fragdb_%s Fragment class metadata (control option, commutativity); value is always 1.\n# TYPE fragdb_%s gauge\n",
		metrics.FamFragInfo, metrics.FamFragInfo)
	for _, s := range reg.FragInfos() {
		fmt.Fprintf(w, "fragdb_%s{frag=%q,option=%q,commutative=\"%t\"} 1\n",
			metrics.FamFragInfo, string(s.Frag), s.Info.Option, s.Info.Commutative)
	}
}

// writeRuntime renders Go runtime health gauges. ReadMemStats is a
// stop-the-world call measured in microseconds — fine at scrape rates.
func writeRuntime(w http.ResponseWriter) {
	gauge := func(name, help string, val float64) {
		fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s gauge\nfragdb_%s %g\n",
			name, help, name, name, val)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	gauge("go_heap_alloc_bytes", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	gauge("go_gc_pause_total_seconds", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)
	gauge("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
}

// writeHistogram renders one power-of-two histogram with cumulative
// buckets, durations converted to seconds. It renders from a
// HistSnapshot so the cumulative buckets, the +Inf bucket, and the
// _count line agree even while Observe runs concurrently (reading the
// buckets and the count independently raced: Observe increments count
// before the bucket, so a scrape could see +Inf < the last bucket).
func writeHistogram(w http.ResponseWriter, name, help string, h *metrics.Histogram) {
	s := h.Snapshot()
	fmt.Fprintf(w, "# HELP fragdb_%s %s\n# TYPE fragdb_%s histogram\n", name, help, name)
	cum := uint64(0)
	for _, b := range s.Buckets() {
		cum += b.Count
		fmt.Fprintf(w, "fragdb_%s_bucket{le=%q} %d\n",
			name, formatLE(b.Upper.Seconds()), cum)
	}
	fmt.Fprintf(w, "fragdb_%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "fragdb_%s_sum %g\n", name, s.Sum.Seconds())
	fmt.Fprintf(w, "fragdb_%s_count %d\n", name, s.Count)
}

// formatLE renders a bucket bound without exponent notation surprises.
func formatLE(sec float64) string {
	s := strconv.FormatFloat(sec, 'g', -1, 64)
	return s
}

// serveTrace renders flight-recorder tails as JSON.
func serveTrace(w http.ResponseWriter, r *http.Request, tracers []*trace.Recorder) {
	n := 100
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	type nodeTrace struct {
		Node   int           `json:"node"`
		Events []trace.Event `json:"events"`
	}
	var out []nodeTrace
	if raw := r.URL.Query().Get("node"); raw != "" {
		id, err := strconv.Atoi(strings.TrimPrefix(raw, "N"))
		if err != nil || id < 0 || id >= len(tracers) {
			http.Error(w, "bad node", http.StatusBadRequest)
			return
		}
		out = append(out, nodeTrace{Node: id, Events: tracers[id].Tail(n)})
	} else {
		for i, tr := range tracers {
			if !tr.Enabled() {
				continue
			}
			out = append(out, nodeTrace{Node: i, Events: tr.Tail(n)})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
