// Package metrics collects the counters reported by the experiment
// harness: offered vs. committed transactions (availability), aborts
// and their causes, propagation work, and corrective actions.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters aggregates one run's statistics. All fields are updated
// atomically, so one Counters value may be shared by all nodes.
type Counters struct {
	// Offered counts transactions submitted.
	Offered atomic.Uint64
	// Committed counts transactions that committed.
	Committed atomic.Uint64
	// Aborted counts transactions aborted for any reason.
	Aborted atomic.Uint64
	// TimedOut counts aborts caused by timeout (blocked on an
	// unreachable agent home, a missing majority, or a lock queue).
	TimedOut atomic.Uint64
	// Deadlocks counts aborts caused by local deadlock detection.
	Deadlocks atomic.Uint64
	// Wounds counts local transactions aborted to let a
	// quasi-transaction through.
	Wounds atomic.Uint64
	// Rejected counts submissions refused up front (not the agent,
	// wrong home node, undeclared read, etc.).
	Rejected atomic.Uint64

	// QuasiApplied counts quasi-transactions installed at remote nodes.
	QuasiApplied atomic.Uint64
	// QuasiForwarded counts old-epoch quasi-transactions forwarded to a
	// moved agent's new home (Section 4.4.3, rule B(2)).
	QuasiForwarded atomic.Uint64
	// MissingRecovered counts missing transactions repackaged by a
	// moved agent's new home (Section 4.4.3, rule A(2)).
	MissingRecovered atomic.Uint64
	// CorrectiveActions counts application-level corrective actions
	// (overdraft fines, cancelled reservations).
	CorrectiveActions atomic.Uint64

	// CommitLatency is the latency histogram of committed transactions
	// (submit to commit, virtual time), for mean and p50/p95/p99
	// reporting.
	CommitLatency Histogram
	// QuasiLag is the propagation-lag histogram of installed
	// quasi-transactions: remote install time minus home commit stamp.
	// It measures how stale replicas run — the quantity partitions
	// stretch (Section 2.2's propagation delay).
	QuasiLag Histogram
}

// Availability returns Committed / Offered (1 when nothing offered).
func (c *Counters) Availability() float64 {
	off := c.Offered.Load()
	if off == 0 {
		return 1
	}
	return float64(c.Committed.Load()) / float64(off)
}

// MeanCommitLatency returns the average commit latency of committed
// transactions.
func (c *Counters) MeanCommitLatency() time.Duration {
	return c.CommitLatency.Mean()
}

// String renders the headline counters on one line, including abort
// causes (deadlocks, wounds), propagation volume, and mean latency.
func (c *Counters) String() string {
	return fmt.Sprintf("offered=%d committed=%d aborted=%d timedout=%d deadlocks=%d wounds=%d rejected=%d quasi-applied=%d avail=%.3f mean-latency=%v",
		c.Offered.Load(), c.Committed.Load(), c.Aborted.Load(),
		c.TimedOut.Load(), c.Deadlocks.Load(), c.Wounds.Load(),
		c.Rejected.Load(), c.QuasiApplied.Load(),
		c.Availability(), c.MeanCommitLatency())
}

// Broadcast aggregates the reliable broadcast's memory and catch-up
// statistics. All fields are atomic, so one Broadcast value may be
// shared by every node of a cluster: the gauges then report
// cluster-wide totals.
type Broadcast struct {
	// LogEntries gauges retained log entries across all streams — the
	// quantity the compaction horizon bounds.
	LogEntries atomic.Int64
	// LogBytes gauges retained payload bytes (only measured when a
	// SizeOf function is configured).
	LogBytes atomic.Int64
	// CompactedSeqs counts sequence numbers truncated below the stable
	// watermark.
	CompactedSeqs atomic.Uint64
	// SnapshotsSent / SnapshotsInstalled count snapshot catch-up offers
	// served and accepted.
	SnapshotsSent      atomic.Uint64
	SnapshotsInstalled atomic.Uint64
	// PendingDropped counts out-of-order arrivals discarded beyond the
	// bounded pending window (anti-entropy redelivers them later).
	PendingDropped atomic.Uint64

	// DataSends counts Data/DataBatch messages handed to the transport
	// (optimistic pushes and anti-entropy repair, per destination).
	DataSends atomic.Uint64
	// PayloadsSent counts the payloads those messages carried. Every
	// push carries one; a repair range carries its whole run.
	PayloadsSent atomic.Uint64
}
