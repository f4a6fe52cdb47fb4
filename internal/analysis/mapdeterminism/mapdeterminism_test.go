package mapdeterminism_test

import (
	"testing"

	"fragdb/internal/analysis/analysistest"
	"fragdb/internal/analysis/mapdeterminism"
)

// TestFixtures proves the analyzer flags map ranges whose bodies reach
// a sink directly, transitively (with the call path), or through a
// per-key closure; stays quiet on aggregation, string building, and the
// collect-sort-range idiom; in non-critical packages flags only
// transaction operations; and honors the allow directive.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), mapdeterminism.Analyzer, "core", "util", "broadcast", "workload")
}

// TestCritical pins the package classification rule.
func TestCritical(t *testing.T) {
	for path, want := range map[string]bool{
		"fragdb/internal/core":         true,
		"fragdb/internal/placement":    true,
		"fragdb/internal/chaoskit":     true,
		"fragdb/internal/broadcast":    true,
		"fragdb/internal/agentmove":    true,
		"fragdb/internal/obs":          true,
		"fragdb/internal/core [tests]": true,
		"fragdb/internal/netsim":       false,
		"fragdb/internal/rtnet":        false,
		"fragdb/cmd/halint":            false,
		"core":                         true,
		"util":                         false,
	} {
		if got := mapdeterminism.Critical(path); got != want {
			t.Errorf("Critical(%q) = %v, want %v", path, got, want)
		}
	}
}
