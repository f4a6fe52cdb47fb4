package obs

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: fragdb/internal/core
BenchmarkApplySaturation/disjoint 	    2000	    52341 ns/op	     812 B/op	      11 allocs/op
BenchmarkApplySaturation/disjoint/registry 	    2000	    53900 ns/op
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

func TestNewBenchFileAndOverhead(t *testing.T) {
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

	over := RegistryOverhead(results)
	base := "BenchmarkApplySaturation/disjoint"
	got, ok := over[base]
	if !ok {
		t.Fatalf("no overhead computed: %+v", over)
	}
	want := (53900.0 - 52341.0) / 52341.0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("overhead: want %v, got %v", want, got)
	}
	if out := FormatOverhead(over); !strings.Contains(out, base) {
		t.Errorf("formatted overhead missing base cell:\n%s", out)
	}
}

func TestMedianOverhead(t *testing.T) {
	if got := MedianOverhead(nil); got != 0 {
		t.Errorf("empty: want 0, got %v", got)
	}
	odd := map[string]float64{"a": 0.10, "b": -0.20, "c": 0.02}
	if got := MedianOverhead(odd); got != 0.02 {
		t.Errorf("odd: want 0.02, got %v", got)
	}
	even := map[string]float64{"a": 0.10, "b": -0.20, "c": 0.02, "d": 0.04}
	if got := MedianOverhead(even); got != 0.03 {
		t.Errorf("even: want 0.03 (mean of middle pair), got %v", got)
	}
}

// TestRegistryOverheadMedianOfRepeats: a cell run several times
// (go test -count) is compared by its median ns/op, so one outlier run
// neither trips nor hides the budget.
func TestRegistryOverheadMedianOfRepeats(t *testing.T) {
	var results []BenchResult
	for _, r := range []struct {
		name string
		ns   float64
	}{
		{"B/c", 100}, {"B/c/registry", 105}, {"B/c", 300},
		{"B/c/registry", 400}, {"B/c", 110}, {"B/c/registry", 104},
	} {
		results = append(results, BenchResult{Name: r.name, Metrics: map[string]float64{"ns/op": r.ns}})
	}
	over := RegistryOverhead(results)
	if want := (105.0 - 110.0) / 110.0; len(over) != 1 || over["B/c"] != want {
		t.Fatalf("overhead %v, want B/c: %v", over, want)
	}
}
