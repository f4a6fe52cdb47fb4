// Package trace implements a per-node flight recorder: a bounded ring
// buffer of typed, virtual-time-stamped events that threads a causal
// transaction ID through the full lifecycle the paper describes —
// submit, lock wait/grant/wound, quasi-transaction broadcast, remote
// apply or forward, and commit or abort-with-cause — plus broadcast
// housekeeping (compaction, snapshot catch-up, pending drops) and
// agent-movement protocol steps.
//
// The recorder exists for failure-time diagnostics: when a chaos run
// violates an invariant, the trailing window of every node's recorder
// is a readable causal timeline of how the violation was produced.
// Recording is off by default; a nil *Recorder is a valid, inert
// recorder, and callers guard emission sites with Enabled checks so the
// disabled hot path costs a nil comparison and nothing else.
//
// The package sits below the engine: it may import only the leaf
// vocabulary packages (fragments, netsim, simtime, txn), so every other
// layer — lock manager, broadcast, core, agentmove — can depend on it
// without cycles.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// Kind identifies the type of a recorded event.
type Kind uint8

// Event kinds, grouped by the subsystem that emits them.
const (
	// KNone is the zero Kind; it is never recorded.
	KNone Kind = iota

	// Transaction lifecycle (core/exec).

	// KSubmit: a transaction started executing at its home node.
	KSubmit
	// KReject: a submission was refused before execution began.
	KReject
	// KLockWait: a lock request queued behind a conflicting holder.
	KLockWait
	// KLockGrant: a queued lock request was granted by a release.
	KLockGrant
	// KLockDeadlock: a lock request was denied by deadlock detection.
	KLockDeadlock
	// KWound: a local transaction was aborted so a committed remote
	// update (or snapshot) could proceed; Other is the wounding update.
	KWound
	// KCommit: the transaction committed; Dur is its commit latency.
	KCommit
	// KAbort: the transaction aborted; Err carries the cause.
	KAbort

	// Quasi-transaction propagation (core/exec, core/node, core/move).

	// KQuasiSend: the home node broadcast a quasi-transaction.
	KQuasiSend
	// KQuasiApply: a quasi-transaction was installed at a replica; Dur
	// is its propagation lag (install time minus home commit stamp).
	KQuasiApply
	// KQuasiForward: an old-epoch straggler was forwarded to a moved
	// agent's new home (Section 4.4.3 rule B(2)).
	KQuasiForward
	// KRecover: a missing transaction was repackaged at the new home
	// (rule A(2)); Txn is the original id, Other the repackaged id.
	KRecover

	// Majority commit (core/majority).

	// KMajorityPrepare: the home node broadcast the prepare phase.
	KMajorityPrepare
	// KPrepareBuffered: a replica buffered a prepared quasi-transaction
	// and acknowledged to the home node.
	KPrepareBuffered
	// KMajorityAck: the home node counted an acknowledgment; Seq is the
	// acknowledgment count so far.
	KMajorityAck
	// KPreparedDrop: a replica discarded a prepared quasi-transaction
	// whose home node gave up on assembling a majority.
	KPreparedDrop

	// Remote read locks (core/exec, core/remotelock).

	// KRemoteLockWait: a transaction sent a remote read-lock request.
	KRemoteLockWait
	// KRemoteLockGrant: the remote grant arrived and the transaction
	// resumed.
	KRemoteLockGrant
	// KRemoteLockDeny: the serving node's deadlock detection refused
	// the remote request.
	KRemoteLockDeny
	// KRemoteLockExpire: the serving node reclaimed locks leaked by an
	// unreachable remote reader (lease expiry).
	KRemoteLockExpire

	// Crash-recovery and snapshot catch-up (core/recovery, core/snapshot).

	// KCrash: the node crashed (volatile state lost).
	KCrash
	// KRestart: the node finished rebuilding from its durable state.
	KRestart
	// KSnapCapture: the node captured a catch-up snapshot for a lagging
	// peer.
	KSnapCapture
	// KSnapInstall: the node installed a peer's catch-up snapshot.
	KSnapInstall

	// Reliable broadcast (internal/broadcast).

	// KCompact: a stream was truncated below the acked watermark; Peer
	// is the stream's origin, Seq the new base, Arg the entries dropped.
	KCompact
	// KSnapOffer: a snapshot offer was sent to a peer behind the
	// compaction horizon.
	KSnapOffer
	// KSnapAccept: a snapshot offer fast-forwarded this node's streams.
	KSnapAccept
	// KPendingDrop: an out-of-order arrival beyond the pending window
	// was dropped (anti-entropy redelivers); Peer is the origin, Seq
	// the dropped sequence number.
	KPendingDrop

	// Agent movement (core/move, internal/agentmove).

	// KMoveBegin: a movement protocol started; Note names the protocol.
	KMoveBegin
	// KMoveFence: in-flight update transactions of a moving fragment
	// were fenced (aborted) at the old home.
	KMoveFence
	// KMoveInstall: a transported fragment snapshot was installed at
	// the new home (move-with-data).
	KMoveInstall
	// KMoveEpoch: the new home opened a new epoch and broadcast M0
	// (no-preparation move); Seq is the new epoch.
	KMoveEpoch
	// KEpochSwitch: a node switched a fragment's stream to a new epoch
	// announced by M0; Peer is the new home, Seq the new epoch.
	KEpochSwitch
	// KMoveDone: the movement protocol completed.
	KMoveDone
	// KMoveFail: the movement protocol failed; Err carries the cause.
	KMoveFail
	// KElect: an election reconstituted a fragment's token.
	KElect

	kindCount // number of kinds; keep last
)

// kindNames maps kinds to their compact display names.
var kindNames = [kindCount]string{
	KNone:             "none",
	KSubmit:           "submit",
	KReject:           "reject",
	KLockWait:         "lock-wait",
	KLockGrant:        "lock-grant",
	KLockDeadlock:     "lock-deadlock",
	KWound:            "wound",
	KCommit:           "commit",
	KAbort:            "abort",
	KQuasiSend:        "quasi-send",
	KQuasiApply:       "quasi-apply",
	KQuasiForward:     "quasi-forward",
	KRecover:          "recover",
	KMajorityPrepare:  "majority-prepare",
	KPrepareBuffered:  "prepare-buffered",
	KMajorityAck:      "majority-ack",
	KPreparedDrop:     "prepared-drop",
	KRemoteLockWait:   "remote-lock-wait",
	KRemoteLockGrant:  "remote-lock-grant",
	KRemoteLockDeny:   "remote-lock-deny",
	KRemoteLockExpire: "remote-lock-expire",
	KCrash:            "crash",
	KRestart:          "restart",
	KSnapCapture:      "snap-capture",
	KSnapInstall:      "snap-install",
	KCompact:          "compact",
	KSnapOffer:        "snap-offer",
	KSnapAccept:       "snap-accept",
	KPendingDrop:      "pending-drop",
	KMoveBegin:        "move-begin",
	KMoveFence:        "move-fence",
	KMoveInstall:      "move-install",
	KMoveEpoch:        "move-epoch",
	KEpochSwitch:      "epoch-switch",
	KMoveDone:         "move-done",
	KMoveFail:         "move-fail",
	KElect:            "elect",
}

// String returns the kind's compact name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, so trace tails exported
// over HTTP are self-describing.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// kindByName is the inverse of kindNames, built once for decoding.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, kindCount)
	for k, name := range kindNames {
		if name != "" {
			m[name] = Kind(k)
		}
	}
	return m
}()

// KindFromName returns the kind with the given compact name, or
// (KNone, false) when unknown.
func KindFromName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// UnmarshalJSON parses the name form produced by MarshalJSON, so
// scraped /trace tails decode back into Events. Unknown names decode
// as KNone rather than erroring: a newer node's trace must not break
// an older observer.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	kk, ok := kindByName[name]
	if !ok {
		kk = KNone
	}
	*k = kk
	return nil
}

// Event is one recorded occurrence. It is a flat value — no pointers,
// no allocation on record — and only the fields a kind defines are
// meaningful; the rest stay zero. T and Node are stamped by the
// Recorder.
type Event struct {
	// T is the virtual (or wall-offset) time the event was recorded.
	T simtime.Time `json:"t"`
	// Node is the recording node.
	Node netsim.NodeID `json:"node"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Txn is the primary causal transaction id (zero when the kind has
	// none, e.g. KCompact).
	Txn txn.ID `json:"txn,omitzero"`
	// Other is a secondary transaction id: the wounding update for
	// KWound, the repackaged id for KRecover.
	Other txn.ID `json:"other,omitzero"`
	// Frag is the fragment involved, when any.
	Frag fragments.FragmentID `json:"frag,omitempty"`
	// Obj is the object involved, when any (lock events).
	Obj fragments.ObjectID `json:"obj,omitempty"`
	// Pos is the fragment-stream position involved, when any.
	Pos txn.FragPos `json:"pos,omitzero"`
	// Peer is the remote node involved, when HasPeer is set.
	Peer netsim.NodeID `json:"peer,omitempty"`
	// HasPeer reports whether Peer is meaningful (node 0 is a valid
	// peer, so presence needs its own bit).
	HasPeer bool `json:"-"`
	// Seq is a kind-specific sequence number (broadcast seq, epoch,
	// ack count).
	Seq uint64 `json:"seq,omitempty"`
	// Arg is a kind-specific count (entries compacted).
	Arg int64 `json:"arg,omitempty"`
	// Dur is a kind-specific duration: commit latency for KCommit and
	// KAbort, propagation lag for KQuasiApply.
	Dur simtime.Duration `json:"dur,omitempty"`
	// Err is the cause for KAbort, KReject, and KMoveFail.
	Err string `json:"err,omitempty"`
	// Note is freeform context (transaction label, move protocol).
	Note string `json:"note,omitempty"`
}

// String renders the event as one compact timeline line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%10v] n%d %-17s", e.T, e.Node, e.Kind)
	if !e.Txn.IsZero() {
		fmt.Fprintf(&b, " %v", e.Txn)
	}
	if !e.Other.IsZero() {
		fmt.Fprintf(&b, " other=%v", e.Other)
	}
	if e.Frag != "" {
		fmt.Fprintf(&b, " frag=%s", e.Frag)
	}
	if e.Obj != "" {
		fmt.Fprintf(&b, " obj=%s", e.Obj)
	}
	if (e.Pos != txn.FragPos{}) {
		fmt.Fprintf(&b, " pos=%v", e.Pos)
	}
	if e.HasPeer {
		fmt.Fprintf(&b, " peer=n%d", e.Peer)
	}
	if e.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", e.Seq)
	}
	if e.Arg != 0 {
		fmt.Fprintf(&b, " n=%d", e.Arg)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// Recorder is one node's flight recorder: a fixed-capacity ring buffer
// of Events. A nil *Recorder is valid and records nothing, so callers
// hold one pointer and guard hot emission sites with a nil check.
//
// Recorder is safe for concurrent use (the real-time transport delivers
// from multiple goroutines); under the deterministic simulator the
// mutex is uncontended.
type Recorder struct {
	node netsim.NodeID
	now  func() simtime.Time

	mu    sync.Mutex
	buf   []Event
	next  int    // ring index of the slot to write next
	total uint64 // events ever recorded (total - len(buf) were dropped)
}

// NewRecorder creates a recorder for node with the given ring capacity.
// now supplies timestamps (the cluster's virtual clock, or a wall-clock
// offset for real-time runs). A capacity <= 0 returns nil — the
// disabled recorder.
func NewRecorder(node netsim.NodeID, capacity int, now func() simtime.Time) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{node: node, now: now, buf: make([]Event, 0, capacity)}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Node returns the recording node's id (zero for a nil recorder).
func (r *Recorder) Node() netsim.NodeID {
	if r == nil {
		return 0
	}
	return r.node
}

// Emit records the event, stamping its time and node. Nil-safe: a
// disabled recorder drops it. Callers on hot paths should still guard
// with Enabled to skip constructing the Event at all.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.T = r.now()
	e.Node = r.node
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total reports how many events were ever recorded (recorded minus Len
// have been overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Tail returns the most recent n events in chronological order (all of
// them when n <= 0 or n exceeds the ring's contents). The returned
// slice is a copy.
func (r *Recorder) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := len(r.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := 0
	if size == cap(r.buf) {
		start = r.next // oldest entry once the ring has wrapped
	}
	for i := size - n; i < size; i++ {
		out = append(out, r.buf[(start+i)%size])
	}
	return out
}

// Dump renders the most recent n events (all when n <= 0), one line
// each, ending with a summary of how many were dropped by the ring.
func (r *Recorder) Dump(n int) string {
	if r == nil {
		return ""
	}
	events := r.Tail(n)
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	total := r.Total()
	if dropped := total - uint64(r.Len()); dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events overwritten; %d recorded in total)\n", dropped, total)
	}
	return b.String()
}

// DumpAll renders the trailing window of every recorder, one titled
// section per node, for failure-time diagnostics bundles.
func DumpAll(recs []*Recorder, tail int) string {
	var b strings.Builder
	for _, r := range recs {
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "--- node %d trace (last %d of %d events) ---\n",
			r.Node(), len(r.Tail(tail)), r.Total())
		b.WriteString(r.Dump(tail))
	}
	return b.String()
}
