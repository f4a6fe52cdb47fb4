package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchSchema versions the benchmark-trajectory artifact so later PRs
// can extend it without breaking trend tooling that reads older files.
const BenchSchema = "fragdb-bench/1"

// BenchFile is the BENCH_prN.json artifact: one CI run's benchmark
// results under a stable schema.
type BenchFile struct {
	Schema string `json:"schema"`
	// PR is the stacked-PR number the run belongs to.
	PR int `json:"pr"`
	// Source names what produced the results ("go-bench", "haload").
	Source string `json:"source,omitempty"`
	// TakenUnixMS is the caller-injected wall stamp (0 when unknown).
	TakenUnixMS int64 `json:"taken_unix_ms,omitempty"`
	// Commit is the git revision, when the caller knows it.
	Commit string `json:"commit,omitempty"`

	Results []BenchResult `json:"results"`
}

// BenchResult is one benchmark cell: its full name (including
// sub-benchmark path and -cpu suffix) and every reported metric.
type BenchResult struct {
	Name  string `json:"name"`
	Iters int64  `json:"iters"`
	// Metrics maps unit → value exactly as go test reports them:
	// "ns/op", "B/op", "allocs/op", and any ReportMetric extras
	// (e.g. "commits/s", "lag-ms").
	Metrics map[string]float64 `json:"metrics"`
}

// ParseGoBench extracts benchmark result lines from `go test -bench`
// output. Non-benchmark lines (logs, PASS, ok) are skipped.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iters, then (value, unit) pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := BenchResult{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// NewBenchFile assembles the artifact from parsed results, sorted by
// name for stable diffs.
func NewBenchFile(pr int, source, commit string, takenUnixMS int64, results []BenchResult) BenchFile {
	sorted := append([]BenchResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return BenchFile{
		Schema: BenchSchema, PR: pr, Source: source,
		Commit: commit, TakenUnixMS: takenUnixMS, Results: sorted,
	}
}

// RegistryOverhead compares BenchmarkApplySaturation cells with and
// without the labeled registry: for every `<cell>/registry` result it
// finds the matching base cell and reports the relative ns/op overhead.
// A cell run several times (go test -count) counts with its median
// ns/op. Used by CI to enforce the <5% registry-overhead budget.
func RegistryOverhead(results []BenchResult) map[string]float64 {
	runs := map[string][]float64{}
	for _, r := range results {
		if v, ok := r.Metrics["ns/op"]; ok {
			runs[r.Name] = append(runs[r.Name], v)
		}
	}
	out := map[string]float64{}
	for name, vs := range runs {
		i := strings.Index(name, "/registry")
		if i < 0 {
			continue
		}
		baseName := name[:i] + name[i+len("/registry"):]
		bvs, ok := runs[baseName]
		if !ok {
			continue
		}
		if bv := median(bvs); bv != 0 {
			out[baseName] = (median(vs) - bv) / bv
		}
	}
	return out
}

// MedianOverhead reduces a RegistryOverhead map to its median value —
// the number the CI budget gate compares. Individual cells are noisy
// on shared CI runners (the same cell varies 2x between runs), so the
// gate uses the median across all base/registry pairs: a real
// regression in the registry hot path shifts every pair, while runner
// noise scatters symmetrically around the true overhead. Returns 0 for
// an empty map.
func MedianOverhead(over map[string]float64) float64 {
	vals := make([]float64, 0, len(over))
	for _, v := range over {
		vals = append(vals, v)
	}
	return median(vals)
}

// median returns the middle value of vals (the mean of the middle pair
// for an even count; 0 when empty). It sorts vals in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// FormatOverhead renders RegistryOverhead as sorted percentage lines.
func FormatOverhead(over map[string]float64) string {
	names := make([]string, 0, len(over))
	for n := range over {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s: %+.2f%%\n", n, over[n]*100)
	}
	return b.String()
}
