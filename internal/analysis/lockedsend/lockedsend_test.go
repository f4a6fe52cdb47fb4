package lockedsend_test

import (
	"testing"

	"fragdb/internal/analysis/analysistest"
	"fragdb/internal/analysis/lockedsend"
)

// TestFixtures proves the analyzer flags blocking operations under a
// held mutex, tracks release paths, honors the *Locked / "Caller holds
// mu" entry conventions, and stays quiet on goroutine bodies and
// allow-directive lines. Package b
// exercises the transitive layer: blocking reached through helper
// chains and interface dispatch, reported with the call path.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), lockedsend.Analyzer, "a", "b")
}
