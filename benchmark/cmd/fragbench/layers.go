package main

import (
	"sort"
)

// layers appends the per-layer metrics. The ones computed from public
// counters (Cluster.Stats, BroadcastStats, TCP.Stats, /metrics, rusage)
// exist on every run and every workload; the ones computed from spans
// and tap samples exist on traced in-process runs, and ingest on traced
// http_mixed runs.
func layers(res *result, p plan, load *loadOut, rec *recorder, taps []*tap) {
	d := load.after.since(load.before)
	commits := float64(res.attempted - res.failed)
	per := func(v float64) float64 { return v / max(commits, 1) }
	cpuCommits := commits
	if p.w.http {
		cpuCommits = float64(load.commits) // the children's CPU covers their whole life
	}

	res.add("core+lock+storage", "engine_commit_ms", "ms", 1e3*d["commit_latency_seconds_sum"]/max(d["commit_latency_seconds_count"], 1), int(d["commit_latency_seconds_count"]))
	res.add("core+lock+storage", "engine_txns_per_commit", "count", per(d["txns_committed_total"]), 0)
	res.add("core+lock+storage", "lock_waits_per_commit", "count", per(d["frag_lock_waits_total"]), 0)
	res.add("core+lock+storage", "engine_aborted", "count", d["txns_aborted_total"], 0)
	res.add("core+lock+storage", "engine_timed_out", "count", d["txns_timedout_total"], 0)
	res.add("core+lock+storage", "engine_deadlocks", "count", d["txns_deadlocks_total"], 0)
	res.add("core+lock+storage", "engine_wounds", "count", d["txns_wounds_total"], 0)
	remote := 0
	for _, op := range load.ops {
		if op.remote {
			remote++
		}
	}
	res.add("workload", "remote_op_share", "share", float64(remote)/float64(max(res.attempted, 1)), res.attempted)
	res.add("broadcast", "msgs_per_commit", "count", per(d["broadcast_data_sends_total"]), 0)
	res.add("broadcast", "payloads_per_data", "count", d["broadcast_payloads_sent_total"]/max(d["broadcast_data_sends_total"], 1), 0)
	res.add("broadcast", "log_entries", "count", d["broadcast_log_entries"], 0)
	res.add("broadcast", "log_mb", "MB", d["broadcast_log_bytes"]/(1<<20), 0)
	res.add("replica apply", "quasi_applied_per_commit", "count", per(d["quasi_applied_total"]), 0)
	res.add("process", "cpu_us_per_commit", "us", float64(load.cpu.Microseconds())/max(cpuCommits, 1), 0)
	res.add("process", "live_heap_mb", "MB", load.heapMB, 0)
	res.add("process", "drain_ms", "ms", load.drainMS, 1)
	if !p.w.http {
		res.add("rtnet.TCP", "frames_per_commit", "count", per(d["tcp_frames_sent"]), 0)
		res.add("rtnet.TCP", "wire_bytes_per_commit", "B", per(d["tcp_bytes_sent"]), 0)
		res.add("rtnet.TCP", "send_dropped", "count", d["tcp_send_dropped"], 0)
		res.add("rtnet.TCP", "recv_dropped", "count", d["tcp_recv_dropped"], 0)
		res.add("rtnet.TCP", "dials", "count", load.after["tcp_dials"], 0)
	}
	if len(load.heals) > 0 {
		res.add("rtnet.TCP", "dropped_in_cut", "count", float64(load.droppedInCut), 0)
	}
	if rec == nil {
		return
	}

	// The budget of the median operation, layer by layer.
	budget := func(ts []tree, rows ...[3]string) (self map[string]float64, total float64) {
		if len(ts) == 0 {
			return nil, 0
		}
		self, total, n := medianBudget(ts)
		for _, row := range rows { // layer, metric, span
			res.add(row[0], row[1], "ms", self[row[2]], n)
		}
		return self, total
	}
	if p.w.http {
		budget(rec.trees("request"),
			[3]string{"cmd/hanode", "ingest_self_ms", "request"},
			[3]string{"deploy", "node_reported_ms", "node"})
		res.add("cmd/hanode", "requests", "count", float64(res.attempted), 0)
		res.add("cmd/hanode", "requests_failed", "count", float64(res.failed), 0)
		return
	}
	ops := rec.trees("op")
	self, total := budget(ops,
		[3]string{"deploy", "submit_block_ms", "submit"},
		[3]string{"rtnet.Loop", "loop_wait_ms", "loop_wait"},
		[3]string{"core+lock+storage", "engine_ms", "engine"})
	var waits []float64
	var byPath [2][]float64 // whole operations: local, remote
	for _, t := range ops {
		waits = append(waits, t.self["loop_wait"])
	}
	for _, st := range load.traces {
		if op := load.ops[st.rec]; op.end != 0 {
			i := 0
			if op.remote {
				i = 1
			}
			byPath[i] = append(byPath[i], msOf(op.end-op.due))
		}
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		res.add("rtnet.Loop", "loop_wait_p99_ms", "ms", quantile(waits, 0.99), len(waits))
		res.add("end to end", "traced_commit_p50_ms", "ms", total, len(waits))
		res.add("end to end", "layer_sum_share", "share",
			(self["submit"]+self["loop_wait"]+self["engine"])/total, len(waits))
	}
	for i, name := range []string{"local_op_ms", "remote_op_ms"} {
		if s := byPath[i]; len(s) > 0 {
			sort.Float64s(s)
			res.add("workload", name, "ms", quantile(s, 0.5), len(s))
		}
	}
	budget(rec.trees("replicate"),
		[3]string{"broadcast", "commit_to_send_ms", "commit_to_send"},
		[3]string{"rtnet.TCP", "wire_transit_ms", "wire_transit"},
		[3]string{"replica apply", "apply_ms", "apply"})
	var sends []float64
	for _, tp := range taps {
		for _, ns := range tp.sendNs {
			sends = append(sends, float64(ns)/1e3)
		}
	}
	if len(sends) > 0 {
		sort.Float64s(sends)
		res.add("rtnet.TCP", "tcp_send_us", "us", quantile(sends, 0.5), len(sends))
	}
	for _, w := range wireCosts(taps) {
		// Tap counts cover warm-up and window alike, so they are given
		// per second of load, not per commit.
		res.add("wire", "msgs_per_s:"+w.name, "1/s", float64(w.msgs)/(p.warm+p.window).Seconds(), 0)
		res.add("wire", "encode_ns:"+w.name, "ns", w.encodeNS, 0)
		res.add("wire", "decode_ns:"+w.name, "ns", w.decodeNS, 0)
		res.add("wire", "bytes_per_msg:"+w.name, "B", w.bytes, 0)
	}
}
