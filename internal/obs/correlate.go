package obs

import (
	"fmt"
	"sort"
	"strings"

	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// Timeline is one transaction incarnation's merged cross-node causal
// timeline: every event any node's flight recorder kept for the
// (transaction id, epoch) pair, ordered by lifecycle stage.
//
// Two facts of the scraped rings shape this type. First, rings wrap:
// a node under load overwrites old events, so a timeline may be missing
// its head (Complete=false). Second, transaction ids recur across
// epochs: after an agent move, stragglers and recovered transactions
// replay the same id against a new epoch's stream, so incarnations are
// keyed by (Txn, Epoch) and never fused.
type Timeline struct {
	Txn    txn.ID        `json:"txn"`
	Epoch  uint64        `json:"epoch"`
	Events []trace.Event `json:"events"`

	// Nodes lists the distinct recording nodes, ascending.
	Nodes []int `json:"nodes"`
	// Complete reports that both the submission and a terminal event
	// survived ring wraparound and scrape timing.
	Complete bool `json:"complete"`
	// Committed/Aborted report the terminal outcome when one was seen.
	Committed bool   `json:"committed"`
	Aborted   bool   `json:"aborted"`
	Cause     string `json:"cause,omitempty"`
}

// CrossNode reports whether events from at least two nodes correlated.
func (tl Timeline) CrossNode() bool { return len(tl.Nodes) >= 2 }

// String renders the timeline as a titled block of event lines.
func (tl Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v epoch=%d nodes=%v complete=%v", tl.Txn, tl.Epoch, tl.Nodes, tl.Complete)
	switch {
	case tl.Committed:
		b.WriteString(" outcome=commit")
	case tl.Aborted:
		fmt.Fprintf(&b, " outcome=abort(%s)", tl.Cause)
	}
	b.WriteByte('\n')
	for _, e := range tl.Events {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// stage buckets event kinds by lifecycle phase, so the merge can order
// cross-node events causally even though per-node clocks are skewed:
// within one transaction, a submission always precedes its lock waits,
// which precede the majority exchange, which precedes the terminal
// commit/abort, which precedes quasi propagation and remote applies.
// Within a stage (where clock order is meaningful — same node, or
// replica applies that genuinely race) ties break by timestamp then
// node.
func stage(k trace.Kind) int {
	switch k {
	case trace.KSubmit, trace.KReject:
		return 0
	case trace.KLockWait, trace.KLockGrant, trace.KLockDeadlock, trace.KWound,
		trace.KRemoteLockWait, trace.KRemoteLockGrant, trace.KRemoteLockDeny, trace.KRemoteLockExpire:
		return 1
	case trace.KMajorityPrepare, trace.KPrepareBuffered, trace.KMajorityAck, trace.KPreparedDrop:
		return 2
	case trace.KCommit, trace.KAbort:
		return 3
	case trace.KQuasiSend:
		return 4
	case trace.KQuasiApply, trace.KQuasiForward, trace.KRecover:
		return 5
	default:
		return 6
	}
}

// MergeTimelines correlates per-node flight-recorder tails (from any
// number of nodes and any number of overlapping scrapes) into global
// transaction timelines. Exact-duplicate events — the same event seen
// by two scrapes of the same ring — are dropped; same-id events from
// different epochs are split into separate incarnations.
func MergeTimelines(tails []TraceTail) []Timeline {
	seen := map[trace.Event]struct{}{}
	byTxn := map[txn.ID][]trace.Event{}
	for _, tail := range tails {
		for _, e := range tail.Events {
			if e.Txn.IsZero() {
				continue // housekeeping events carry no causal id
			}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			byTxn[e.Txn] = append(byTxn[e.Txn], e)
		}
	}

	var out []Timeline
	for id, events := range byTxn {
		out = append(out, splitIncarnations(id, events)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Txn != out[j].Txn {
			return out[i].Txn.Less(out[j].Txn)
		}
		return out[i].Epoch < out[j].Epoch
	})
	return out
}

// splitIncarnations partitions one id's events by Pos.Epoch. Events
// with no stream position (submit, locks, commit — all recorded at the
// home node before the update is positioned) belong to the earliest
// incarnation; each later epoch seen in a positioned event is its own
// incarnation (a straggler forwarded or a transaction recovered at a
// moved agent's new home).
func splitIncarnations(id txn.ID, events []trace.Event) []Timeline {
	epochs := map[uint64]bool{}
	for _, e := range events {
		if e.Pos != (txn.FragPos{}) {
			epochs[e.Pos.Epoch] = true
		}
	}
	var lowest uint64
	first := true
	for ep := range epochs {
		if first || ep < lowest {
			lowest, first = ep, false
		}
	}

	byEpoch := map[uint64][]trace.Event{}
	for _, e := range events {
		ep := lowest // pos-less events anchor at the original incarnation
		if e.Pos != (txn.FragPos{}) {
			ep = e.Pos.Epoch
		}
		byEpoch[ep] = append(byEpoch[ep], e)
	}

	out := make([]Timeline, 0, len(byEpoch))
	for ep, evs := range byEpoch {
		out = append(out, buildTimeline(id, ep, ep == lowest, evs))
	}
	return out
}

// buildTimeline orders one incarnation's events and derives its
// summary facts. original marks the incarnation holding the home-node
// lifecycle (lowest epoch).
func buildTimeline(id txn.ID, epoch uint64, original bool, events []trace.Event) Timeline {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		sa, sb := stage(a.Kind), stage(b.Kind)
		if sa != sb {
			return sa < sb
		}
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Node < b.Node
	})
	tl := Timeline{Txn: id, Epoch: epoch, Events: events}
	nodes := map[int]bool{}
	var hasSubmit, hasTerminal bool
	for _, e := range events {
		nodes[int(e.Node)] = true
		switch e.Kind {
		case trace.KSubmit:
			hasSubmit = true
		case trace.KReject:
			hasTerminal = true
			tl.Aborted = true
			tl.Cause = e.Err
		case trace.KCommit:
			hasTerminal = true
			tl.Committed = true
		case trace.KAbort:
			hasTerminal = true
			tl.Aborted = true
			tl.Cause = e.Err
		}
	}
	for n := range nodes {
		tl.Nodes = append(tl.Nodes, n)
	}
	sort.Ints(tl.Nodes)
	// A forwarded/recovered incarnation has no submit of its own; it is
	// complete when its terminal (the apply/forward/recover) is present.
	// The original incarnation needs both ends of the lifecycle.
	if original || hasSubmit {
		tl.Complete = hasSubmit && hasTerminal
	} else {
		tl.Complete = len(events) > 0
	}
	return tl
}
