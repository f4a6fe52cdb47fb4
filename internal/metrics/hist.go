package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two latency buckets a Histogram
// holds. Bucket 0 covers [0ns, 1ns]; bucket i (0 < i < HistBuckets-1)
// covers (2^(i-1), 2^i] ns; the last bucket is the overflow bucket for
// everything above 2^(HistBuckets-2) ns (~4.6 minutes) — far beyond any
// latency this engine produces, virtual or real.
const HistBuckets = 40

// Histogram is a lock-free latency histogram with power-of-two bucket
// boundaries. Observations and reads are safe from any goroutine, so
// one Histogram may be shared by every node of a cluster, like the
// other counters in this package. The zero value is ready to use.
//
// Power-of-two buckets trade resolution for a branch-free bucket index
// (one bits.Len64); quantiles are therefore upper bounds accurate to a
// factor of two, which is ample for the p50/p95/p99 spread the
// experiments report — the paper's availability story is about
// order-of-magnitude latency cliffs at partition time, not microsecond
// precision.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// histBucketOf returns the bucket index for a duration.
func histBucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	// bits.Len64(v) is the position of the highest set bit plus one, so
	// v in (2^(i-1), 2^i] lands in bucket i via Len64(v-1).
	i := bits.Len64(uint64(d - 1))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// histBucketUpper returns bucket i's inclusive upper bound.
func histBucketUpper(i int) time.Duration {
	if i <= 0 {
		return time.Nanosecond
	}
	return time.Duration(1) << uint(i)
}

// Observe records one latency sample. Negative durations are clamped
// to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.buckets[histBucketOf(d)].Add(1)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest sample recorded (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of
// the recorded samples: the bucket boundary at or above the true value
// of the nearest-rank sample (the ⌈q·n⌉-th smallest), clamped to the
// maximum observed sample (which makes single-sample and
// overflow-bucket quantiles exact). Returns 0 when the histogram is
// empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the wanted sample in sorted order.
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == HistBuckets-1 {
				return h.Max() // overflow bucket has no finite upper bound
			}
			upper := histBucketUpper(i)
			if max := h.Max(); upper > max {
				upper = max
			}
			return upper
		}
	}
	return h.Max() // racing Observe: count ahead of bucket increment
}

// Percentiles returns the p50, p95, and p99 quantile bounds.
func (h *Histogram) Percentiles() (p50, p95, p99 time.Duration) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// Bucket is one non-empty histogram bucket, for exposition formats.
type Bucket struct {
	// Upper is the bucket's inclusive upper bound.
	Upper time.Duration
	// Count is the number of samples in this bucket (not cumulative).
	Count uint64
}

// HistSnapshot is a self-consistent point-in-time view of a Histogram,
// for exposition formats that must not mix values from different
// instants. Its Count is derived from the captured bucket counts, so a
// cumulative rendering always ends exactly at Count — scraping a
// histogram mid-Observe can no longer produce a le="+Inf" bucket that
// disagrees with the _count line (Observe increments count before the
// bucket, so reading the two independently races). Sum and Max are
// captured best-effort alongside; Sum is clamped to zero when the
// snapshot is empty.
type HistSnapshot struct {
	// Count is the number of samples in the snapshot: exactly the sum
	// of the bucket counts, by construction.
	Count uint64
	// Sum and Max are the totals at capture time.
	Sum, Max time.Duration

	counts [HistBuckets]uint64
}

// Snapshot captures a self-consistent view of the histogram. Safe to
// call concurrently with Observe.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	// Capture sum and max before the buckets: each may then be at most
	// as fresh as the buckets, never reflect samples the buckets missed.
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := 0; i < HistBuckets; i++ {
		c := h.buckets[i].Load()
		s.counts[i] = c
		s.Count += c
	}
	if s.Count == 0 {
		s.Sum, s.Max = 0, 0
	}
	return s
}

// Buckets returns the snapshot's non-empty buckets in ascending order.
func (s *HistSnapshot) Buckets() []Bucket {
	var out []Bucket
	for i := 0; i < HistBuckets; i++ {
		if c := s.counts[i]; c > 0 {
			out = append(out, Bucket{Upper: histBucketUpper(i), Count: c})
		}
	}
	return out
}

// String renders the summary statistics on one line.
func (h *Histogram) String() string {
	p50, p95, p99 := h.Percentiles()
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), p50, p95, p99, h.Max())
}
