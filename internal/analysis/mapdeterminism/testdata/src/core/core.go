// Package core is a mapdeterminism fixture standing in for a
// determinism-critical engine package: map-order must never reach a
// decision sink, while aggregation and the collect-sort-range idiom
// stay quiet.
package core

import (
	"fmt"
	"sort"
	"strings"

	"trace"
)

// fanout sends under map order: the delivery schedule now depends on
// iteration order.
func fanout(m map[string]int, ch chan string) {
	for k := range m { // want `map iteration order reaches a decision sink: channel send in the loop body`
		ch <- k
	}
}

// logAll emits a trace event per key: a direct sink call in the body.
func logAll(m map[string]int) {
	for k := range m { // want `trace\.Emit \(trace emit\) in the loop body`
		trace.Emit(k)
	}
}

// announce hides the emit one more hop down.
func announce(k string) { record(k) }

func record(k string) { trace.Emit(k) }

// relayAll reaches the emit transitively: flagged with the call path.
func relayAll(m map[string]int) {
	for k := range m { // want `reaches a trace emit via core\.announce → core\.record → trace\.Emit`
		announce(k)
	}
}

// printAll writes terminal output per key: fmt printing is an encode
// sink.
func printAll(m map[string]int) {
	for k, v := range m { // want `fmt\.Println \(encode/output\) in the loop body`
		fmt.Println(k, v)
	}
}

// closures built per-key carry the order with them: the literal's body
// counts as part of the loop.
func deferred(m map[string]int, run func(func())) {
	for k := range m { // want `trace\.Emit \(trace emit\) in the loop body`
		k := k
		run(func() { trace.Emit(k) })
	}
}

// sum only aggregates: addition is order-immune, quiet.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// render builds a string with Fprintf into a Builder: string building
// is not an output sink (and this fixture sorts anyway — the point is
// the Fprint destination, not the sort).
func render(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d;", k, v)
	}
	return b.String()
}

// sortedFanout is the canonical fix: collect (no sink: quiet), sort,
// then range the slice — which is not a map range at all.
func sortedFanout(m map[string]int, ch chan string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch <- k
	}
}

// sanctioned shows the escape hatch.
func sanctioned(m map[string]int, ch chan string) {
	for k := range m { //halint:allow mapdeterminism -- fixture: the map holds exactly one key by construction
		ch <- k
	}
}

// Tx stands in for the engine's transaction handle. Its operations are
// sinks in every package, not only in the critical ones.
type Tx struct{}

// Read is a transaction operation.
func (tx *Tx) Read(o string) (any, error) { return nil, nil }

// Write is a transaction operation.
func (tx *Tx) Write(o string, v any) error { return nil }
