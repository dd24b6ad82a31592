package obs

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram: count=%d sum=%g", s.Count, s.Sum)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("Quantile(%g) on empty = %g, want 0", q, got)
		}
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram()
	const v = 0.001 // 1ms
	h.Observe(v)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != v {
		t.Fatalf("count=%d sum=%g, want 1/%g", s.Count, s.Sum, v)
	}
	// Every quantile of a one-sample distribution must land in the bucket
	// containing the sample: between the value and its bucket's upper bound.
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		if got < v || got > 2*v {
			t.Errorf("Quantile(%g) = %g, want in [%g, %g]", q, got, v, 2*v)
		}
	}
}

func TestHistogramBelowFirstBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(1e-9) // below the 1µs floor
	h.Observe(0)
	h.Observe(-5) // negative durations (clock weirdness) must not panic or underflow
	s := h.Snapshot()
	if s.Counts[0] != 3 {
		t.Fatalf("first bucket holds %d, want 3", s.Counts[0])
	}
	if got := s.Quantile(0.99); got > histMinValue {
		t.Errorf("quantile %g exceeds first bucket bound %g", got, histMinValue)
	}
	if s.Sum != 1e-9-5 {
		t.Errorf("sum = %g, want %g", s.Sum, 1e-9-5)
	}
}

func TestHistogramAboveLastBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(1e9) // ~31 years, far past the last finite bound
	s := h.Snapshot()
	if s.Counts[histNumBuckets] != 1 {
		t.Fatalf("overflow bucket holds %d, want 1", s.Counts[histNumBuckets])
	}
	// Quantiles saturate at the last finite bound instead of reporting +Inf.
	want := HistogramBucketBound(histNumBuckets - 1)
	if got := s.Quantile(0.5); got != want {
		t.Errorf("overflow quantile = %g, want %g", got, want)
	}
	if math.IsInf(s.Quantile(1), 1) {
		t.Error("quantile reported +Inf")
	}
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(0.5)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Sum != 0.5 {
		t.Fatalf("NaN poisoned the sum: %g", s.Sum)
	}
}

func TestHistogramNilReceiver(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot non-empty: %+v", s)
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	prev := 0.0
	for i := 0; i < histNumBuckets; i++ {
		b := HistogramBucketBound(i)
		if b <= prev {
			t.Fatalf("bucket bounds not increasing at %d: %g <= %g", i, b, prev)
		}
		// A value exactly on the bound belongs to its bucket (inclusive upper).
		if got := histBucketIndex(b); got != i {
			t.Errorf("histBucketIndex(bound(%d)) = %d", i, got)
		}
		prev = b
	}
	if !math.IsInf(HistogramBucketBound(histNumBuckets), 1) {
		t.Error("overflow bound not +Inf")
	}
	if got := histBucketIndex(histMinValue * 1.5); got != 1 {
		t.Errorf("1.5µs in bucket %d, want 1", got)
	}
}

// TestHistogramConcurrentObserve exercises the lock-free path under -race:
// many goroutines hammering one histogram must lose no observations and keep
// the CAS-maintained sum exact (all values equal, so order cannot matter).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const (
		workers = 8
		perG    = 5000
		v       = 0.0005
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perG {
		t.Fatalf("lost observations: count = %d, want %d", s.Count, workers*perG)
	}
	want := 0.0
	for i := 0; i < workers*perG; i++ {
		want += v
	}
	if s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	var bucketTotal uint64
	for _, n := range s.Counts {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-5) // 10µs .. 10ms
	}
	s := h.Snapshot()
	p50, p90, p99 := s.P50(), s.P90(), s.P99()
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not ordered: p50=%g p90=%g p99=%g", p50, p90, p99)
	}
	// Log-bucketed estimates are coarse; within a factor of 2 of truth.
	if p50 < 0.005/2 || p50 > 0.005*2 {
		t.Errorf("p50 = %g, want ~0.005", p50)
	}
	if p99 < 0.0099/2 || p99 > 0.0099*2 {
		t.Errorf("p99 = %g, want ~0.0099", p99)
	}
}

// TestHistogramObserveZeroAlloc pins the hot-path contract: Observe allocates
// nothing, and the context-level Observe with no tracer installed is free.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", allocs)
	}
	SetDefault(nil)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() { Observe(ctx, "stage", 0.001) }); allocs != 0 {
		t.Fatalf("disabled obs.Observe allocates %v per op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

// BenchmarkHistogramObserveDisabled is the acceptance benchmark: with no
// tracer installed the context-level Observe must report 0 allocs/op.
func BenchmarkHistogramObserveDisabled(b *testing.B) {
	SetDefault(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Observe(ctx, "bench.stage", 0.001)
	}
}

// TestHistBucketIndexEdges pins the bucket of every edge value: nothing
// invalid or tiny escapes bucket 0, and nothing beyond the last finite bound
// — +Inf and values whose quotient by the first bound overflows included —
// lands anywhere but the overflow bucket.
func TestHistBucketIndexEdges(t *testing.T) {
	last := HistogramBucketBound(histNumBuckets - 1)
	cases := []struct {
		name string
		v    float64
		want int
	}{
		{"+Inf", math.Inf(1), histNumBuckets},
		{"NaN", math.NaN(), 0},
		{"zero", 0, 0},
		{"negative", -1, 0},
		{"first bound", 1e-6, 0},
		{"MaxFloat64", math.MaxFloat64, histNumBuckets},
		{"last bound - 1ulp", math.Nextafter(last, 0), histNumBuckets - 1},
		{"last bound", last, histNumBuckets - 1},
		{"last bound + 1ulp", math.Nextafter(last, math.Inf(1)), histNumBuckets},
	}
	for _, c := range cases {
		if got := histBucketIndex(c.v); got != c.want {
			t.Errorf("histBucketIndex(%s = %g) = %d, want %d", c.name, c.v, got, c.want)
		}
	}
	// An infinite observation must not drag quantiles down to bucket 0.
	h := NewHistogram()
	h.Observe(math.Inf(1))
	if s := h.Snapshot(); s.Counts[histNumBuckets] != 1 || s.P50() != last {
		t.Errorf("+Inf observation: overflow count %d, p50 %g (want 1, %g)", s.Counts[histNumBuckets], s.P50(), last)
	}
}
