package wireencodable_test

import (
	"testing"

	"fragdb/internal/analysis/analysistest"
	"fragdb/internal/analysis/wireencodable"
)

// TestFixtures proves the analyzer derives the encodable set from the
// wire.Register calls of the fixture packages (however the call is
// written), flags unregistered payloads at every checked site, and
// honors both the type-declaration allow directive and registrations
// made next to the type.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), wireencodable.Analyzer,
		"app", "broadcast", "netsim", "txn", "wire")
}
