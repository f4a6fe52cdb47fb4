package main

import (
	"fragdb/internal/metrics"
)

// counters is one reading of the clusters' public counters, summed over
// the three nodes and keyed by the Prometheus family hanode exports
// them under (minus the fragdb_ prefix), so both kinds of cluster fill
// the same map. The tcp_* keys have no family: hanode does not export
// its transport's counters, and only in-process clusters set them.
type counters map[string]float64

// gauges are levels, not totals: since leaves them as read.
var gauges = map[string]bool{
	"broadcast_log_entries": true, "broadcast_log_bytes": true, "go_heap_alloc_bytes": true,
}

// since returns what happened between reading o and reading c.
func (c counters) since(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		if !gauges[k] {
			v -= o[k]
		}
		d[k] = v
	}
	return d
}

func sumVec(v *metrics.CounterVec) float64 {
	var n uint64
	for _, s := range v.Samples() {
		n += s.Value
	}
	return float64(n)
}

// counters reads Cluster.Stats(), BroadcastStats(), the labeled
// registry and TCP.Stats() of every node. All of them are atomic or
// locked, so any goroutine may read.
func (c *inproc) counters() counters {
	out := counters{}
	for _, nd := range c.nodes {
		cl := nd.Live.Cluster()
		st := cl.Stats()
		out["txns_committed_total"] += float64(st.Committed.Load())
		out["txns_aborted_total"] += float64(st.Aborted.Load())
		out["txns_timedout_total"] += float64(st.TimedOut.Load())
		out["txns_deadlocks_total"] += float64(st.Deadlocks.Load())
		out["txns_wounds_total"] += float64(st.Wounds.Load())
		out["quasi_applied_total"] += float64(st.QuasiApplied.Load())
		out["commit_latency_seconds_sum"] += st.CommitLatency.Sum().Seconds()
		out["commit_latency_seconds_count"] += float64(st.CommitLatency.Count())
		out["frag_lock_waits_total"] += sumVec(&cl.Registry().LockWaits)
		bs := cl.BroadcastStats()
		out["broadcast_data_sends_total"] += float64(bs.DataSends.Load())
		out["broadcast_payloads_sent_total"] += float64(bs.PayloadsSent.Load())
		out["broadcast_log_entries"] += float64(bs.LogEntries.Load())
		out["broadcast_log_bytes"] += float64(bs.LogBytes.Load())
		ts := nd.TCP.Stats()
		out["tcp_frames_sent"] += float64(ts.FramesSent.Load())
		out["tcp_bytes_sent"] += float64(ts.BytesSent.Load())
		out["tcp_send_dropped"] += float64(ts.SendDropped.Load())
		out["tcp_recv_dropped"] += float64(ts.RecvDropped.Load())
		out["tcp_dials"] += float64(ts.Dials.Load())
	}
	return out
}

// scraped lists the families an httpCluster reads off /metrics.
var scraped = []string{
	"txns_committed_total", "txns_aborted_total", "txns_timedout_total", "txns_deadlocks_total",
	"txns_wounds_total", "quasi_applied_total", "commit_latency_seconds_sum", "commit_latency_seconds_count",
	"frag_lock_waits_total", "broadcast_data_sends_total", "broadcast_payloads_sent_total",
	"broadcast_log_entries", "broadcast_log_bytes", "go_heap_alloc_bytes",
}
