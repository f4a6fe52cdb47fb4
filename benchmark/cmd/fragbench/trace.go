package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// span is one interval at a layer boundary, in run-clock nanoseconds.
// Spans of one transaction share Txn; Parent names the span that
// caused this one ("" for a root). A layer's self time is its span
// minus the part its children cover.
type span struct {
	Name   string `json:"name"`
	Txn    string `json:"txn"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run is over.
type recorder struct{ spans []span }

func (r *recorder) add(name, txn string, start, end int64, parent string) {
	r.spans = append(r.spans, span{Name: name, Txn: txn, Start: start, End: end, Parent: parent})
}

// write emits one JSON object per line.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tree is one root span with the self time of every span under it, in
// milliseconds: a span's duration minus what its direct children cover.
// Children of one parent do not overlap here, so their durations add.
type tree struct {
	total float64
	self  map[string]float64
}

// trees groups the spans into trees rooted at spans named root.
func (r *recorder) trees(root string) []tree {
	type key struct{ txn, name string }
	byKey := make(map[key]span, len(r.spans))
	covered := make(map[key]int64)
	for _, s := range r.spans {
		byKey[key{s.Txn, s.Name}] = s
		if s.Parent != "" {
			covered[key{s.Txn, s.Parent}] += s.End - s.Start
		}
	}
	out := make(map[string]*tree)
	for _, s := range r.spans {
		top := s
		for top.Parent != "" {
			top = byKey[key{top.Txn, top.Parent}]
		}
		if top.Name != root {
			continue
		}
		t := out[s.Txn]
		if t == nil {
			t = &tree{total: msOf(top.End - top.Start), self: make(map[string]float64)}
			out[s.Txn] = t
		}
		t.self[s.Name] = msOf(s.End - s.Start - covered[key{s.Txn, s.Name}])
	}
	list := make([]tree, 0, len(out))
	for _, t := range out {
		list = append(list, *t)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].total < list[j].total })
	return list
}

// medianBudget says where the median tree's time went: it averages
// each span's self time over the trees whose total lies between the
// 45th and the 55th percentile. Percentiles of the parts taken one by
// one would not add up to the percentile of the whole; this does.
func medianBudget(sorted []tree) (self map[string]float64, total float64, n int) {
	band := sorted[len(sorted)*45/100 : len(sorted)*55/100+min(1, len(sorted))]
	self = make(map[string]float64)
	for _, t := range band {
		total += t.total
		for name, ms := range t.self {
			self[name] += ms
		}
	}
	n = len(band)
	for name := range self {
		self[name] /= float64(max(n, 1))
	}
	return self, total / float64(max(n, 1)), n
}

// opSpans turns the traced operations into spans: the client-observed
// "op" and, inside it, "submit" (Node.Do until it returned: deploy's
// Inject back-pressure), "loop_wait" (until the loop reached the
// operation) and "engine" (until the done callback: lock, execution,
// local commit — and for a remote operation the forward or remote lock
// round trip).
func (r *recorder) opSpans(load *loadOut) {
	for _, st := range load.traces {
		op := load.ops[st.rec]
		if op.end == 0 {
			continue
		}
		id := fmt.Sprintf("op#%d", st.rec)
		if st.id != txn.Zero {
			id = st.id.String()
		}
		reached := max(st.loopRan, st.submitted)
		r.add("op", id, op.due, op.end, "")
		r.add("submit", id, op.due, st.submitted, "op")
		r.add("loop_wait", id, st.submitted, reached, "op")
		r.add("engine", id, reached, op.end, "op")
	}
}

// httpSpans records what a client of hanode can see of each request:
// the round trip and, inside it, the time the node reports for the
// operation itself. The rest of the round trip is ingest: HTTP, JSON,
// the handler's goroutine hand-offs.
func (r *recorder) httpSpans(load *loadOut) {
	for i, op := range load.ops {
		if !op.ok || i%traceSample != 0 {
			continue
		}
		id := fmt.Sprintf("op#%d", i)
		r.add("request", id, op.due, op.end, "")
		half := op.selfNs / 2 // the node's part sits somewhere inside; centre it
		r.add("node", id, op.due+half, op.end-(op.selfNs-half), "request")
	}
}

// replication joins, per sampled transaction, the home node's done time
// with what the taps saw, and returns the replica lag of each
// transaction acknowledged inside the window: done callback until the
// last replica's loop had processed the delivery. With a recorder it
// also emits the spans of the slowest replica's path: "replicate" and,
// inside it, "commit_to_send" (broadcast), "wire_transit" (wire +
// rtnet.TCP, both ends; its child "tcp_send" is the Send call itself:
// encode and enqueue) and "apply" (the receiver's loop and core).
func replication(load *loadOut, taps []*tap, rec *recorder) (lagMS []float64) {
	type hop struct{ sent, sendTook, recv, applied int64 }
	hops := make(map[txn.ID]map[int]*hop) // per transaction, per replica
	at := func(id txn.ID, node int) *hop {
		m := hops[id]
		if m == nil {
			m = make(map[int]*hop)
			hops[id] = m
		}
		h := m[node]
		if h == nil {
			h = &hop{}
			m[node] = h
		}
		return h
	}
	for node, tp := range taps {
		for _, a := range tp.arrivals {
			if _, ours := load.doneAt[a.id]; !ours || a.applied == 0 {
				continue
			}
			if h := at(a.id, node); h.applied == 0 { // repair may deliver twice: first counts
				h.recv, h.applied = a.recv, a.applied
			}
		}
		for _, d := range tp.departures {
			if _, ours := load.doneAt[d.id]; ours {
				// A peer answering a digest may send it again: the first
				// send is the one that counts.
				if h := at(d.id, d.to); h.sent == 0 || d.at < h.sent {
					h.sent, h.sendTook = d.at, d.took
				}
			}
		}
	}
	for id, done := range load.doneAt {
		if done < load.ws || done >= load.we || len(hops[id]) < nodes-1 {
			continue
		}
		var last *hop
		for _, h := range hops[id] {
			if h.applied == 0 {
				last = nil
				break
			}
			if last == nil || h.applied > last.applied {
				last = h
			}
		}
		if last == nil {
			continue
		}
		lagMS = append(lagMS, msOf(last.applied-done))
		if rec == nil || last.sent == 0 || last.sent > last.recv {
			continue
		}
		// The engine broadcasts at commit, just before it runs the done
		// callback, so the send usually precedes done by microseconds;
		// the span tree starts at whichever came first.
		t := id.String()
		begin := min(done, last.sent)
		rec.add("replicate", t, begin, last.applied, "")
		rec.add("commit_to_send", t, begin, last.sent, "replicate")
		rec.add("wire_transit", t, last.sent, last.recv, "replicate")
		rec.add("tcp_send", t, last.sent, last.sent+last.sendTook, "wire_transit")
		rec.add("apply", t, last.recv, last.applied, "replicate")
	}
	return lagMS
}

// wireCost times wire.Encode, wire.Decode and wire.Size on the payloads
// the taps sampled, per Go payload type, after the run.
type wireCost struct {
	name               string
	msgs               int64
	encodeNS, decodeNS float64
	bytes              float64
}

func wireCosts(taps []*tap) []wireCost {
	msgs := make(map[string]int64)
	samples := make(map[string][]any)
	for _, tp := range taps {
		for _, st := range tp.types {
			msgs[st.name] += st.msgs
			samples[st.name] = append(samples[st.name], st.samples...)
		}
	}
	var out []wireCost
	for name, ps := range samples {
		c := wireCost{name: name, msgs: msgs[name]}
		encoded := make([][]byte, 0, len(ps))
		start := time.Now()
		for _, p := range ps {
			if b, err := wire.Encode(p); err == nil {
				encoded = append(encoded, b)
			}
		}
		if len(encoded) == 0 {
			continue
		}
		c.encodeNS = float64(time.Since(start)) / float64(len(ps))
		start = time.Now()
		for _, b := range encoded {
			_, _ = wire.Decode(b) // timing only; the transport already decoded these once
		}
		c.decodeNS = float64(time.Since(start)) / float64(len(encoded))
		for _, b := range encoded {
			c.bytes += float64(len(b))
		}
		c.bytes /= float64(len(encoded))
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].msgs > out[j].msgs })
	return out
}
