package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fragdb/internal/obs"
)

// writeBench writes go-bench output to a file in a test directory.
func writeBench(t *testing.T, out string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchConvertNeedsResults: output holding no benchmark line fails
// the conversion rather than writing an empty artifact; otherwise every
// result lands in the artifact under the stamped PR.
func TestBenchConvertNeedsResults(t *testing.T) {
	empty := writeBench(t, "PASS\nok  \tfragdb/internal/core\t1.0s\n")
	if code := runBenchConvert(empty, "", 0, ""); code == 0 {
		t.Fatal("conversion passed with no benchmark results")
	}
	in := writeBench(t, "BenchmarkApplySaturation/disjoint \t 1000\t 2000 ns/op\n"+
		"BenchmarkLockCycle \t 1000\t 1200 ns/op\n")
	out := filepath.Join(t.TempDir(), "bench.json")
	if code := runBenchConvert(in, out, 25, "abc"); code != 0 {
		t.Fatalf("conversion exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bf obs.BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.PR != 25 || bf.Commit != "abc" || len(bf.Results) != 2 {
		t.Fatalf("artifact: pr %d commit %q, %d results", bf.PR, bf.Commit, len(bf.Results))
	}
}
