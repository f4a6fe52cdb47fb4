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

// Chaos aggregates the counters of a chaoskit campaign: plans run,
// invariant checks passed and failed, fault and shrink work. One Chaos
// value is shared by all sweep workers (fields are atomic), so
// cmd/hachaos can print a single summary table for a parallel run.
type Chaos struct {
	// Plans counts scenario plans executed (including shrink re-runs).
	Plans atomic.Uint64
	// PlanFailures counts plans with at least one failed invariant.
	PlanFailures atomic.Uint64
	// ChecksPassed / ChecksFailed count individual invariant checks.
	ChecksPassed atomic.Uint64
	ChecksFailed atomic.Uint64
	// TxnsSubmitted / TxnsCommitted count workload transactions across
	// all executed plans.
	TxnsSubmitted atomic.Uint64
	TxnsCommitted atomic.Uint64
	// FaultsInjected counts fault episodes (partitions, crashes)
	// actually scheduled; MovesScheduled counts agent-move attempts.
	FaultsInjected atomic.Uint64
	MovesScheduled atomic.Uint64
	// ShrinkSteps counts candidate re-executions tried by the shrinker;
	// ShrinkAccepted counts the candidates that kept the failure.
	ShrinkSteps    atomic.Uint64
	ShrinkAccepted atomic.Uint64
}

// String renders the chaos counters on one line.
func (c *Chaos) String() string {
	return fmt.Sprintf("plans=%d failures=%d checks=%d/%d txns=%d/%d shrink=%d/%d",
		c.Plans.Load(), c.PlanFailures.Load(),
		c.ChecksPassed.Load(), c.ChecksPassed.Load()+c.ChecksFailed.Load(),
		c.TxnsCommitted.Load(), c.TxnsSubmitted.Load(),
		c.ShrinkAccepted.Load(), c.ShrinkSteps.Load())
}

// Table renders the chaos counters as an aligned multi-line summary.
func (c *Chaos) Table() string {
	rows := [][2]string{
		{"plans run", fmt.Sprint(c.Plans.Load())},
		{"plans failed", fmt.Sprint(c.PlanFailures.Load())},
		{"invariant checks passed", fmt.Sprint(c.ChecksPassed.Load())},
		{"invariant checks failed", fmt.Sprint(c.ChecksFailed.Load())},
		{"txns submitted", fmt.Sprint(c.TxnsSubmitted.Load())},
		{"txns committed", fmt.Sprint(c.TxnsCommitted.Load())},
		{"fault episodes injected", fmt.Sprint(c.FaultsInjected.Load())},
		{"agent moves scheduled", fmt.Sprint(c.MovesScheduled.Load())},
		{"shrink steps tried", fmt.Sprint(c.ShrinkSteps.Load())},
		{"shrink steps accepted", fmt.Sprint(c.ShrinkAccepted.Load())},
	}
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("  %-*s  %s\n", width, r[0], r[1])
	}
	return out
}
