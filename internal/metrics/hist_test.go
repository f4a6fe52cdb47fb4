package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
		{time.Duration(1) << 38, 38},
		{time.Duration(1)<<38 + 1, 39}, // first overflow value
		{time.Duration(1) << 55, HistBuckets - 1}, // deep overflow clamps
	}
	for _, c := range cases {
		if got := histBucketOf(c.d); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's upper bound must itself land in that bucket
	// (inclusive upper boundary).
	for i := 0; i < HistBuckets-1; i++ {
		if got := histBucketOf(histBucketUpper(i)); got != i {
			t.Errorf("upper bound of bucket %d maps to bucket %d", i, got)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram has nonzero stats")
	}
	if h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 {
		t.Error("empty histogram has nonzero quantiles")
	}
	if s := h.Snapshot(); len(s.Buckets()) != 0 {
		t.Errorf("empty histogram has %d buckets", len(s.Buckets()))
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(37 * time.Millisecond)
	// With one sample every quantile is that sample, exactly: the
	// bucket's power-of-two upper bound is clamped to the observed max.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0} {
		if got := h.Quantile(q); got != 37*time.Millisecond {
			t.Errorf("Quantile(%v) = %v, want 37ms", q, got)
		}
	}
	if h.Mean() != 37*time.Millisecond || h.Max() != 37*time.Millisecond {
		t.Errorf("mean=%v max=%v", h.Mean(), h.Max())
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Histogram
	big := 20 * time.Minute // above 2^38 ns ≈ 4.6 min
	h.Observe(big)
	h.Observe(time.Millisecond)
	if got := h.Quantile(1.0); got != big {
		t.Errorf("overflow quantile = %v, want %v (the observed max)", got, big)
	}
	if got := h.Quantile(0.5); got > 2*time.Millisecond {
		t.Errorf("p50 = %v, want <= 2ms bucket bound", got)
	}
}

func TestHistQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	// Power-of-two buckets guarantee: true value <= reported <= 2*true.
	for _, c := range []struct {
		q     float64
		exact time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.Quantile(c.q)
		if got < c.exact || got > 2*c.exact {
			t.Errorf("Quantile(%v) = %v, want in [%v, %v]", c.q, got, c.exact, 2*c.exact)
		}
	}
	if got := h.Quantile(1.0); got != time.Millisecond {
		t.Errorf("Quantile(1.0) = %v, want 1ms (max clamp)", got)
	}
	// Out-of-range q values clamp rather than panic.
	if h.Quantile(-1) == 0 || h.Quantile(2) != time.Millisecond {
		t.Errorf("clamped quantiles: q=-1 -> %v, q=2 -> %v", h.Quantile(-1), h.Quantile(2))
	}
}

// The q-quantile is the nearest-rank sample's bucket bound: of
// {1, 3, 100} ms the median is the second sample, not the first, and
// the p99 is the third.
func TestHistQuantileNearestRank(t *testing.T) {
	var h Histogram
	for _, ms := range []time.Duration{1, 3, 100} {
		h.Observe(ms * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.33, 1048576}, {0.5, 4194304}, {0.66, 4194304}, {0.99, 100 * time.Millisecond}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	var inBuckets uint64
	s := h.Snapshot()
	for _, b := range s.Buckets() {
		inBuckets += b.Count
	}
	if inBuckets != goroutines*per {
		t.Errorf("bucket total = %d, want %d", inBuckets, goroutines*per)
	}
	want := time.Duration(goroutines*per-1) * time.Microsecond
	if h.Max() != want {
		t.Errorf("max = %v, want %v", h.Max(), want)
	}
}

func TestHistString(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	s := h.String()
	for _, want := range []string{"n=1", "mean=2ms", "p50=2ms", "p99=2ms", "max=2ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestHistSnapshotBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
	h.Observe(2 * time.Millisecond)
	h.Observe(6 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 8*time.Millisecond || s.Max != 6*time.Millisecond {
		t.Errorf("snapshot: count=%d sum=%v max=%v", s.Count, s.Sum, s.Max)
	}
	var inBuckets uint64
	for _, b := range s.Buckets() {
		inBuckets += b.Count
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total %d != snapshot count %d", inBuckets, s.Count)
	}
	// The live histogram keeps observing; the snapshot must not move.
	h.Observe(time.Second)
	if s.Count != 2 {
		t.Errorf("snapshot mutated by later Observe: count=%d", s.Count)
	}
}

// TestHistSnapshotConsistentUnderConcurrency is the regression test for
// the /metrics scrape race: while writers hammer Observe, every
// snapshot must be internally consistent — its Count equals the sum of
// its bucket counts exactly (the invariant Prometheus requires between
// the le="+Inf" bucket and the _count line). Reading Count() and
// Buckets() independently violates this almost immediately.
func TestHistSnapshotConsistentUnderConcurrency(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(d * time.Microsecond)
				d = (d*1664525 + 1013904223) % (1 << 20)
			}
		}(w + 1)
	}
	for i := 0; i < 5000; i++ {
		s := h.Snapshot()
		var inBuckets uint64
		for _, b := range s.Buckets() {
			inBuckets += b.Count
		}
		if inBuckets != s.Count {
			t.Fatalf("iteration %d: snapshot count %d != bucket sum %d", i, s.Count, inBuckets)
		}
	}
	close(stop)
	wg.Wait()
}
