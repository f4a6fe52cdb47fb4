package obs

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fragdb/internal/metrics"
)

const promPage = `# HELP fragdb_frag_reads_total reads
# TYPE fragdb_frag_reads_total counter
fragdb_frag_reads_total{frag="BALANCES",node="0"} 9
fragdb_frag_reads_total{frag="CTR(1)",node="1"} 4
fragdb_frag_info{frag="Q \"odd\\name\"",option="read-locks",commutative="false"} 1
fragdb_txns_offered_total 10
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="0",le="0.001"} 3
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="0",le="0.01"} 5
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="0",le="+Inf"} 6
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="1",le="0.001"} 1
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="1",le="0.01"} 1
fragdb_frag_commit_latency_seconds_bucket{frag="BALANCES",node="1",le="+Inf"} 1
this line is garbage
fragdb_bad_value{x="y"} notanumber
`

func TestParsePromText(t *testing.T) {
	m, err := ParsePromText(strings.NewReader(promPage))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	if v, ok := m.Value("fragdb_frag_reads_total", map[string]string{"frag": "BALANCES"}); !ok || v != 9 {
		t.Errorf("BALANCES reads: want 9, got %v (ok=%v)", v, ok)
	}
	if v, ok := m.Value("fragdb_txns_offered_total", nil); !ok || v != 10 {
		t.Errorf("unlabeled sample: want 10, got %v (ok=%v)", v, ok)
	}
	if got := m.Sum("fragdb_frag_reads_total", nil); got != 13 {
		t.Errorf("Sum over both nodes: want 13, got %v", got)
	}
	// Escaped quotes and backslashes in label values survive.
	found := false
	m.Each("fragdb_frag_info", func(s Sample) {
		if s.Label("frag") == `Q "odd\name"` {
			found = true
		}
	})
	if !found {
		t.Errorf("escaped label value not parsed; samples: %+v", m)
	}
	// Garbage lines are skipped, not fatal.
	if _, ok := m.Value("fragdb_bad_value", nil); ok {
		t.Errorf("unparsable value should be dropped")
	}
}

func TestHistBucketsMergesSeries(t *testing.T) {
	m, err := ParsePromText(strings.NewReader(promPage))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	buckets := m.HistBuckets("fragdb_frag_commit_latency_seconds", map[string]string{"frag": "BALANCES"})
	// node 0 de-cumulates to [3, 2, 1]; node 1 to [1, 0, 0]; merged:
	// le=0.001 → 4, le=0.01 → 2, +Inf → 1.
	if len(buckets) != 3 {
		t.Fatalf("want 3 merged buckets, got %+v", buckets)
	}
	if buckets[0].Upper != 0.001 || buckets[0].Count != 4 {
		t.Errorf("bucket 0: want (0.001, 4), got %+v", buckets[0])
	}
	if buckets[1].Upper != 0.01 || buckets[1].Count != 2 {
		t.Errorf("bucket 1: want (0.01, 2), got %+v", buckets[1])
	}
	if buckets[2].Count != 1 {
		t.Errorf("+Inf bucket: want count 1, got %+v", buckets[2])
	}

	// 7 observations: p50 lands in the first bucket, p95 in +Inf which
	// reports the largest finite bound.
	if q := Quantile(buckets, 0.50); q != 0.001 {
		t.Errorf("p50: want 0.001, got %v", q)
	}
	if q := Quantile(buckets, 0.95); q != 0.01 {
		t.Errorf("p95 (lands in +Inf): want last finite bound 0.01, got %v", q)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty: want 0, got %v", q)
	}
	// Everything in +Inf: no finite bound to report.
	onlyInf := []HistBucket{{Upper: infValue, Count: 5}}
	if q := Quantile(onlyInf, 0.5); q != 0 {
		t.Errorf("all-inf: want 0, got %v", q)
	}
	b := []HistBucket{{Upper: 1, Count: 10}, {Upper: 2, Count: 10}}
	if q := Quantile(b, -1); q != 1 {
		t.Errorf("clamped low: want 1, got %v", q)
	}
	if q := Quantile(b, 2); q != 2 {
		t.Errorf("clamped high: want 2, got %v", q)
	}
	if q := Quantile(b, 0.5); math.IsNaN(q) || q != 1 {
		t.Errorf("median: want 1, got %v", q)
	}
}

// A histogram's own quantile agrees with the one read off its rendered
// buckets, clamped to the observed max: both take the nearest-rank
// sample, ⌈q·n⌉.
func TestHistogramQuantileMatchesRenderedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][]time.Duration{{time.Millisecond, 3 * time.Millisecond, 100 * time.Millisecond}}
	for _, n := range []int{1, 2, 5, 7, 20, 99, 1000} {
		set := make([]time.Duration, n)
		for i := range set {
			set[i] = time.Duration(rng.Int63n(int64(time.Second)))
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		var h metrics.Histogram
		for _, d := range set {
			h.Observe(d)
		}
		snap := h.Snapshot()
		var rendered []HistBucket
		for _, b := range snap.Buckets() {
			rendered = append(rendered, HistBucket{Upper: b.Upper.Seconds(), Count: float64(b.Count)})
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.66, 0.9, 0.95, 0.99, 1} {
			want := min(time.Duration(math.Round(Quantile(rendered, q)*1e9)), h.Max())
			if got := h.Quantile(q); got != want {
				t.Errorf("%d samples, q=%v: Histogram.Quantile %v, rendered buckets %v", len(set), q, got, want)
			}
		}
	}
}
