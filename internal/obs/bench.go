package obs

import (
	"bufio"
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
