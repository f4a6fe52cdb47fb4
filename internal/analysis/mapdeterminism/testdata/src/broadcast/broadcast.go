// Package broadcast is a mapdeterminism fixture standing in for the
// reliable broadcast: queueSend appends to an outbox that is posted in
// queue order after the lock is released, so queueing is a wire send
// even though no transport call appears in the loop.
package broadcast

import "sort"

type Broadcaster struct {
	logs   map[int][]any
	outbox []any
}

// queueSend records an outbound message for posting in queue order.
func (b *Broadcaster) queueSend(to int, msg any) {
	b.outbox = append(b.outbox, msg)
}

func (b *Broadcaster) sendData(to int, msg any) { b.queueSend(to, msg) }

// repairUnsorted answers a digest in map order: the outbox, and so the
// wire, now depends on iteration order.
func (b *Broadcaster) repairUnsorted(to int) {
	for _, entries := range b.logs { // want `reaches a wire/channel send via broadcast\.Broadcaster\.sendData → broadcast\.Broadcaster\.queueSend`
		b.sendData(to, entries)
	}
}

// repair ranges the sorted origins: quiet.
func (b *Broadcaster) repair(to int) {
	origins := make([]int, 0, len(b.logs))
	for o := range b.logs {
		origins = append(origins, o)
	}
	sort.Ints(origins)
	for _, o := range origins {
		b.sendData(to, b.logs[o])
	}
}
