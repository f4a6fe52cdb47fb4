package main

import (
	"reflect"
	"sync/atomic"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	"fragdb/internal/txn"
)

// lagSample is the share of transactions whose replication is followed:
// 1 in lagSample, chosen by transaction sequence number so the home
// node and both replicas pick the same ones without coordinating.
const lagSample = 16

// wireSample is the share of sent payloads kept for timing the codec
// after the run, and wireKeep the most kept per Go type.
const (
	wireSample = 64
	wireKeep   = 2048
)

func sampled(id txn.ID) bool { return id.Seq%lagSample == 0 }

// clock is the time base of one run: every stamp is nanoseconds since
// the run began, on the monotonic clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// arrival is one sampled quasi-transaction reaching a replica: recv is
// when the transport handed it to the node, applied when a probe
// injected behind the delivery ran on the node's loop.
type arrival struct {
	id            txn.ID
	recv, applied int64
}

// departure is a Send that carried a sampled quasi-transaction to one
// peer (traced runs only). Repair may send it again; the earliest
// counts.
type departure struct {
	id   txn.ID
	to   int
	at   int64
	took int64 // duration of the Send call
}

// typeStat counts what one Go payload type put on the wire (traced
// runs only).
type typeStat struct {
	name    string
	msgs    int64
	samples []any
}

// typeKey tells payload types apart; a broadcast.Data also by what it
// carries.
type typeKey struct{ outer, inner reflect.Type }

// tap wraps a node's *rtnet.TCP. It is the benchmark's only seam into
// the replication path: sends and deliveries pass through unchanged,
// and the tap notes when they happened. Untraced runs pay for two
// clock reads and one injected probe per sampled delivery and nothing
// on the send side.
type tap struct {
	inner  *rtnet.TCP
	clk    clock
	traced bool
	loop   atomic.Pointer[rtnet.Loop] // set once the node exists

	// Appended only by the transport's delivery goroutine; applied is
	// written by the node's loop. Both are read after the node closed.
	arrivals []*arrival

	// Written only from the node's loop goroutine, which is where the
	// engine sends from.
	departures []departure
	sendNs     []int64
	types      map[typeKey]*typeStat
}

func newTap(inner *rtnet.TCP, clk clock, traced bool) *tap {
	return &tap{inner: inner, clk: clk, traced: traced,
		types: make(map[typeKey]*typeStat)}
}

func (t *tap) N() int                            { return t.inner.N() }
func (t *tap) Reachable(a, b netsim.NodeID) bool { return t.inner.Reachable(a, b) }

// quasis calls fn for every quasi-transaction a transport payload
// carries.
func quasis(payload any, fn func(txn.Quasi)) {
	switch m := payload.(type) {
	case broadcast.Data:
		if q, ok := m.Payload.(txn.Quasi); ok {
			fn(q)
		}
	case broadcast.DataBatch:
		for _, p := range m.Payloads {
			if q, ok := p.(txn.Quasi); ok {
				fn(q)
			}
		}
	}
}

func (t *tap) Send(from, to netsim.NodeID, payload any) {
	if !t.traced {
		t.inner.Send(from, to, payload)
		return
	}
	start := t.clk.now()
	t.inner.Send(from, to, payload)
	took := t.clk.now() - start
	t.sendNs = append(t.sendNs, took)
	// Keyed by type, so the name is formatted once per type, not per send.
	k := typeKey{outer: reflect.TypeOf(payload)}
	if d, ok := payload.(broadcast.Data); ok {
		k.inner = reflect.TypeOf(d.Payload)
	}
	st := t.types[k]
	if st == nil {
		st = &typeStat{name: k.outer.String()}
		if k.inner != nil {
			st.name += "{" + k.inner.String() + "}"
		}
		t.types[k] = st
	}
	st.msgs++
	if st.msgs%wireSample == 1 && len(st.samples) < wireKeep {
		st.samples = append(st.samples, payload)
	}
	quasis(payload, func(q txn.Quasi) {
		if !sampled(q.Txn) {
			return
		}
		t.departures = append(t.departures, departure{id: q.Txn, to: int(to), at: start, took: took})
	})
}

func (t *tap) SetHandler(node netsim.NodeID, h netsim.Handler) {
	t.inner.SetHandler(node, func(from netsim.NodeID, payload any) {
		recv := t.clk.now()
		h(from, payload)
		loop := t.loop.Load()
		if loop == nil {
			return
		}
		quasis(payload, func(q txn.Quasi) {
			if !sampled(q.Txn) || q.Txn.Origin == node {
				return
			}
			a := &arrival{id: q.Txn, recv: recv}
			t.arrivals = append(t.arrivals, a)
			// h queued the delivery on the node's loop; this runs right
			// behind it, once the loop has processed it.
			loop.Inject(func() { a.applied = t.clk.now() })
		})
	})
}
