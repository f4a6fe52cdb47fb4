package workload

import (
	"errors"
	"fmt"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/wire"
)

// Operation forwarding: counter bumps and queue appends execute at the
// fragment agent's *current* home, wherever adaptive placement has
// moved it. The origin node generates the entry key (globally unique
// across homes: it embeds the origin id and a per-origin sequence, so
// a migration never restarts the key space) and either submits locally
// or ships the operation to the home over the transport. Replies carry
// the responder's view of the home so a stale origin can chase a moved
// agent; transient failures retry with bounded exponential backoff.

// ErrForwardFailed wraps a forwarded operation's remote abort.
var ErrForwardFailed = errors.New("workload: forwarded operation failed")

// ErrForwardTimeout is returned when a forwarded operation exhausted
// its retries without an answer from any home.
var ErrForwardTimeout = errors.New("workload: forwarded operation timed out")

const (
	// fwdMaxRetries bounds re-dispatches after a stale-home rejection,
	// a transient peer outage, or an agent mid-move.
	fwdMaxRetries = 5
	// fwdBaseBackoff is the delay before the first retry; it doubles
	// per attempt (50, 100, 200, 400, 800ms).
	fwdBaseBackoff = 50 * time.Millisecond
)

type (
	// liveOpMsg carries one Live operation to the fragment agent's
	// current home node.
	liveOpMsg struct {
		ID     uint64        // per-origin request id, echoed in the reply
		Origin netsim.NodeID // submitting node: accounting label + reply target
		Kind   string        // "bump" | "enqueue"
		Ctr    int           // counter/queue fragment index
		Entry  fragments.ObjectID
		Amount int64  // bump increment
		Item   string // enqueue payload
	}

	// liveOpReplyMsg reports a forwarded operation's outcome. Home is
	// the responder's current view of the fragment's home node, so an
	// origin holding a stale token map can retry at the right place.
	liveOpReplyMsg struct {
		ID        uint64
		Committed bool
		NotHome   bool // recipient is not (or no longer) the home
		Err       string
		Home      netsim.NodeID
	}
)

// Both cross rtnet.TCP in a deployment; internal/wire's table holds
// this package's codecs under tags 0x30–0x37.
func init() {
	wire.Register(0x30,
		func(m liveOpMsg) int {
			return wire.SizeUvarint(m.ID) + wire.SizeNodeID(m.Origin) + wire.SizeString(m.Kind) +
				wire.SizeVarint(int64(m.Ctr)) + wire.SizeString(string(m.Entry)) +
				wire.SizeVarint(m.Amount) + wire.SizeString(m.Item)
		},
		func(b []byte, m liveOpMsg) []byte {
			b = wire.AppendUvarint(b, m.ID)
			b = wire.AppendNodeID(b, m.Origin)
			b = wire.AppendString(b, m.Kind)
			b = wire.AppendVarint(b, int64(m.Ctr))
			b = wire.AppendString(b, string(m.Entry))
			b = wire.AppendVarint(b, m.Amount)
			return wire.AppendString(b, m.Item)
		},
		func(r *wire.Reader) liveOpMsg {
			return liveOpMsg{ID: r.Uvarint(), Origin: r.NodeID(), Kind: r.Str(), Ctr: int(r.Varint()),
				Entry: r.ObjectID(), Amount: r.Varint(), Item: r.Str()}
		})
	wire.Register(0x31,
		func(m liveOpReplyMsg) int {
			return wire.SizeUvarint(m.ID) + 2 + wire.SizeString(m.Err) + wire.SizeNodeID(m.Home)
		},
		func(b []byte, m liveOpReplyMsg) []byte {
			b = wire.AppendUvarint(b, m.ID)
			b = wire.AppendBool(b, m.Committed)
			b = wire.AppendBool(b, m.NotHome)
			b = wire.AppendString(b, m.Err)
			return wire.AppendNodeID(b, m.Home)
		},
		func(r *wire.Reader) liveOpReplyMsg {
			return liveOpReplyMsg{ID: r.Uvarint(), Committed: r.Bool(), NotHome: r.Bool(),
				Err: r.Str(), Home: r.NodeID()}
		})
}

// pendingFwd tracks one routed operation until it commits, fails, or
// exhausts its retries. Touched only from engine context.
type pendingFwd struct {
	msg     liveOpMsg
	retries int
	backoff simtime.Duration
	start   simtime.Time
	timeout *simtime.Event
	done    func(core.TxnResult)
}

// fragAgent resolves an operation's fragment and agent.
func fragAgent(m liveOpMsg) (fragments.FragmentID, fragments.AgentID) {
	idx := netsim.NodeID(m.Ctr)
	if m.Kind == "enqueue" {
		return queueFragment(idx), queueAgent(idx)
	}
	return counterFragment(idx), counterAgent(idx)
}

// opSpec builds the transaction executing the operation, labeled with
// its true origin so the placement matrix charges the submitting node.
func opSpec(m liveOpMsg) core.TxnSpec {
	f, agent := fragAgent(m)
	spec := core.TxnSpec{
		Agent: agent, Fragment: f, Label: m.Kind,
		Origin: m.Origin, OriginSet: true,
	}
	if m.Kind == "enqueue" {
		spec.Program = func(tx *core.Tx) error { return tx.Write(m.Entry, m.Item) }
	} else {
		spec.Program = func(tx *core.Tx) error { return tx.Write(m.Entry, m.Amount) }
	}
	return spec
}

// BumpAt submits an increment of counter fragment CTR(ctr) originating
// at node origin, routed to the agent's current home.
func (lv *Live) BumpAt(origin, ctr netsim.NodeID, by int64, done func(core.TxnResult)) {
	f := counterFragment(ctr)
	lv.route(liveOpMsg{
		Origin: origin, Kind: "bump", Ctr: int(ctr),
		Entry: lv.next(f, origin), Amount: by,
	}, done)
}

// EnqueueAt appends an item to queue fragment QUEUE(q) originating at
// node origin, routed to the agent's current home.
func (lv *Live) EnqueueAt(origin, q netsim.NodeID, item string, done func(core.TxnResult)) {
	f := queueFragment(q)
	lv.route(liveOpMsg{
		Origin: origin, Kind: "enqueue", Ctr: int(q),
		Entry: lv.next(f, origin), Item: item,
	}, done)
}

// route starts one operation's dispatch loop.
func (lv *Live) route(m liveOpMsg, done func(core.TxnResult)) {
	lv.nextFwd++
	m.ID = lv.nextFwd
	if done == nil {
		done = func(core.TxnResult) {}
	}
	lv.dispatch(&pendingFwd{
		msg: m, retries: fwdMaxRetries, backoff: fwdBaseBackoff,
		start: lv.Cluster().Sched().Now(), done: done,
	})
}

// attemptTimeout bounds one forwarded attempt: the cluster transaction
// timeout plus transport slack.
func (lv *Live) attemptTimeout() simtime.Duration {
	t := lv.Cluster().Config().TxnTimeout
	if t == 0 {
		t = 2 * time.Second
	}
	return t + 500*time.Millisecond
}

// dispatch executes the operation at the fragment's current home:
// locally when the origin is the home, else forwarded.
func (lv *Live) dispatch(p *pendingFwd) {
	cl := lv.Cluster()
	f, _ := fragAgent(p.msg)
	home, ok := cl.Tokens().HomeOfFragment(f)
	if !ok {
		p.done(core.TxnResult{Label: p.msg.Kind,
			Err:   fmt.Errorf("%w: fragment %q has no home", ErrForwardFailed, f),
			Start: p.start, End: cl.Sched().Now()})
		return
	}
	origin := cl.Node(p.msg.Origin)
	if home == p.msg.Origin {
		origin.Submit(opSpec(p.msg), func(r core.TxnResult) {
			if !r.Committed && retryable(r.Err) && p.retries > 0 {
				// The agent moved away (or is mid-move) between the home
				// lookup and execution: chase it.
				lv.retryLater(p)
				return
			}
			p.done(r)
		})
		return
	}
	lv.pending[p.msg.ID] = p
	p.timeout = cl.Sched().After(lv.attemptTimeout(), func() {
		delete(lv.pending, p.msg.ID)
		if p.retries > 0 {
			lv.retryLater(p)
			return
		}
		p.done(core.TxnResult{Label: p.msg.Kind, Err: ErrForwardTimeout,
			Start: p.start, End: cl.Sched().Now()})
	})
	origin.SendApp(home, p.msg)
}

// retryable reports whether a local submission error means "wrong
// home", which a re-resolve + re-dispatch can fix.
func retryable(err error) bool {
	return errors.Is(err, core.ErrNotHome) || errors.Is(err, core.ErrNotAgent) ||
		errors.Is(err, core.ErrAgentMoving)
}

// retryLater re-dispatches after the current backoff, doubling it.
func (lv *Live) retryLater(p *pendingFwd) {
	p.retries--
	d := p.backoff
	p.backoff *= 2
	lv.Cluster().Sched().After(d, func() { lv.dispatch(p) })
}

// installForwarding hooks the app-message path of every node this
// process runs (all of them in the simulator; one on a deployed node).
func (lv *Live) installForwarding() {
	for _, node := range lv.Cluster().Nodes() {
		node.SetAppHandler(func(from netsim.NodeID, payload any) {
			switch m := payload.(type) {
			case liveOpMsg:
				lv.serveForwarded(node, m)
			case liveOpReplyMsg:
				lv.handleReply(m)
			}
		})
	}
}

// serveForwarded executes a forwarded operation at this node if it is
// (still) the fragment's home, else bounces it with a home hint.
func (lv *Live) serveForwarded(self *core.Node, m liveOpMsg) {
	f, _ := fragAgent(m)
	home, ok := lv.Cluster().Tokens().HomeOfFragment(f)
	if !ok || home != self.ID() {
		self.SendApp(m.Origin, liveOpReplyMsg{ID: m.ID, NotHome: true, Home: home})
		return
	}
	self.Submit(opSpec(m), func(r core.TxnResult) {
		reply := liveOpReplyMsg{ID: m.ID, Committed: r.Committed, Home: self.ID()}
		if r.Err != nil {
			reply.Err = r.Err.Error()
			reply.NotHome = retryable(r.Err)
		}
		self.SendApp(m.Origin, reply)
	})
}

// handleReply resolves (or retries) the pending operation a reply
// answers. Replies for operations already timed out locally are
// dropped: the retry owns the operation now.
func (lv *Live) handleReply(m liveOpReplyMsg) {
	p, ok := lv.pending[m.ID]
	if !ok {
		return
	}
	delete(lv.pending, m.ID)
	cl := lv.Cluster()
	cl.Sched().Cancel(p.timeout)
	if m.Committed {
		p.done(core.TxnResult{Label: p.msg.Kind, Committed: true,
			Start: p.start, End: cl.Sched().Now()})
		return
	}
	if m.NotHome && p.retries > 0 {
		lv.retryLater(p)
		return
	}
	err := error(ErrForwardFailed)
	if m.Err != "" {
		err = fmt.Errorf("%w: %s", ErrForwardFailed, m.Err)
	}
	p.done(core.TxnResult{Label: p.msg.Kind, Err: err,
		Start: p.start, End: cl.Sched().Now()})
}
