// Package workload is a mapdeterminism fixture outside the
// determinism-critical packages, where transaction programs live: only
// a transaction operation counts as a sink here.
package workload

import (
	"sort"

	"core"
)

// writeAll writes in map order: each run of the program may issue the
// writes in a different order.
func writeAll(tx *core.Tx, m map[string]int64) error {
	for o, v := range m { // want `core\.Tx\.Write \(transaction operation\) in the loop body`
		if err := tx.Write(o, v); err != nil {
			return err
		}
	}
	return nil
}

// peek hides the read one call down.
func peek(tx *core.Tx, o string) { _, _ = tx.Read(o) }

// readAll reaches the read transitively: flagged with the call path.
func readAll(tx *core.Tx, m map[string]bool) {
	for o := range m { // want `reaches a transaction operation via workload\.peek → core\.Tx\.Read`
		peek(tx, o)
	}
}

// fanout sends in map order, which only the critical packages forbid.
func fanout(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k
	}
}

// writeSorted is the fix: collect, sort, range the slice.
func writeSorted(tx *core.Tx, m map[string]int64) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := tx.Write(k, m[k]); err != nil {
			return err
		}
	}
	return nil
}
