package main

import (
	"os"
	"path/filepath"
	"testing"
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

// TestOverheadGateNeedsAPair: with a budget set, output holding no
// base and /registry pair fails the gate rather than passing it with
// a median of nothing.
func TestOverheadGateNeedsAPair(t *testing.T) {
	noPair := writeBench(t, "BenchmarkApplySaturation/disjoint \t 1000\t 2000 ns/op\n")
	if code := runBenchConvert(noPair, "", 0, "", 0.05); code == 0 {
		t.Fatal("gate passed with no base and /registry pair")
	}
	if code := runBenchConvert(noPair, "", 0, "", 0); code != 0 {
		t.Fatalf("conversion without a budget exited %d", code)
	}
	pair := writeBench(t, "BenchmarkApplySaturation/disjoint \t 1000\t 2000 ns/op\n"+
		"BenchmarkApplySaturation/disjoint/registry \t 1000\t 2040 ns/op\n")
	if code := runBenchConvert(pair, "", 0, "", 0.05); code != 0 {
		t.Fatalf("gate failed a 2%% overhead under a 5%% budget: exit %d", code)
	}
	if code := runBenchConvert(pair, "", 0, "", 0.01); code == 0 {
		t.Fatal("gate passed a 2% overhead over a 1% budget")
	}
}
