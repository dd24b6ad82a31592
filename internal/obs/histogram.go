package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout. Buckets are fixed log2-spaced upper bounds
// starting at 1µs: bucket 0 holds values ≤ 1µs, bucket i (i ≥ 1) holds
// (1µs·2^(i−1), 1µs·2^i], and a final overflow bucket holds everything
// beyond the last finite bound (≈ 6.4 days). The layout is shared by every
// histogram so bucket series from different stages line up in exposition.
const (
	histMinValue   = 1e-6
	histNumBuckets = 40 // finite buckets; index histNumBuckets is +Inf
)

// Histogram is a fixed-layout, lock-free latency distribution: Observe is a
// single atomic add on the bucket plus atomic count/sum updates, with no
// allocation and no locking, so it sits on solver hot paths. The nil
// *Histogram is a valid disabled histogram whose methods are no-ops — the
// same contract as the nil *Span.
type Histogram struct {
	counts [histNumBuckets + 1]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketIndex maps a value onto its bucket. Values ≤ the first bound
// (including zero and negatives) land in bucket 0; values beyond the last
// finite bound land in the overflow bucket.
func histBucketIndex(v float64) int {
	if !(v > histMinValue) { // also catches NaN
		return 0
	}
	// Checked before the logarithm: for +Inf (and values whose quotient
	// overflows) the float-to-int conversion below is undefined.
	if v > HistogramBucketBound(histNumBuckets-1) {
		return histNumBuckets
	}
	return int(math.Ceil(math.Log2(v / histMinValue)))
}

// HistogramBucketBound returns the inclusive upper bound of bucket i in the
// shared layout; the overflow bucket reports +Inf.
func HistogramBucketBound(i int) float64 {
	if i >= histNumBuckets {
		return math.Inf(1)
	}
	return histMinValue * float64(uint64(1)<<uint(i))
}

// Observe records one value. Safe for concurrent use and on a nil receiver;
// NaN is treated as zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[histBucketIndex(v)].Add(1)
	h.count.Add(1)
	if v != v { // NaN must not poison the sum
		v = 0
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// without synchronisation. Counts are per-bucket (not cumulative).
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Counts [histNumBuckets + 1]uint64
}

// Snapshot copies the current state. Concurrent Observe calls may be
// partially visible (the per-bucket counts and the total are read
// independently); for exposition that tear is harmless.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket containing the target rank. Zero observations yield 0;
// ranks landing in the overflow bucket report the last finite bound — the
// estimate saturates rather than inventing an infinite latency.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= histNumBuckets {
			return HistogramBucketBound(histNumBuckets - 1)
		}
		upper := HistogramBucketBound(i)
		lower := 0.0
		if i > 0 {
			lower = HistogramBucketBound(i - 1)
		}
		return lower + (upper-lower)*(rank-float64(prev))/float64(n)
	}
	return HistogramBucketBound(histNumBuckets - 1)
}

// P50 is the median estimate.
func (s HistogramSnapshot) P50() float64 { return s.Quantile(0.50) }

// P90 is the 90th-percentile estimate.
func (s HistogramSnapshot) P90() float64 { return s.Quantile(0.90) }

// P99 is the 99th-percentile estimate.
func (s HistogramSnapshot) P99() float64 { return s.Quantile(0.99) }
