package obs

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: fragdb/internal/core
BenchmarkApplySaturation/disjoint 	    2000	    52341 ns/op	     812 B/op	      11 allocs/op
BenchmarkLockCycle 	  200000	     1316 ns/op
BenchmarkApplySaturation/skewed-4 	    2000	    41000 ns/op	  24390.5 commits/s
not a bench line
BenchmarkBroken 12 nan
PASS
ok  	fragdb/internal/core	4.2s
`

func TestParseGoBench(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkApplySaturation/disjoint" || r.Iters != 2000 {
		t.Errorf("result 0: %+v", r)
	}
	if r.Metrics["ns/op"] != 52341 || r.Metrics["B/op"] != 812 || r.Metrics["allocs/op"] != 11 {
		t.Errorf("result 0 metrics: %+v", r.Metrics)
	}
	if results[2].Metrics["commits/s"] != 24390.5 {
		t.Errorf("custom ReportMetric unit: %+v", results[2].Metrics)
	}
}

func TestNewBenchFile(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := NewBenchFile(8, "go-bench", "abc123", 999, results)
	if f.Schema != BenchSchema || f.PR != 8 || f.Commit != "abc123" || f.TakenUnixMS != 999 {
		t.Errorf("bench file header: %+v", f)
	}
	for i := 1; i < len(f.Results); i++ {
		if f.Results[i-1].Name > f.Results[i].Name {
			t.Errorf("results not sorted: %q > %q", f.Results[i-1].Name, f.Results[i].Name)
		}
	}
}
