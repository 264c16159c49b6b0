package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// bucketOf returns the snapshot bucket holding exactly the le bound, or
// nil.
func bucketOf(s HistogramSnapshot, le int64) *HistogramBucket {
	for i := range s.Buckets {
		if s.Buckets[i].Le == le {
			return &s.Buckets[i]
		}
	}
	return nil
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Power-of-two edges: 2^i lands in the bucket whose upper bound is
	// 2^(i+1)-1, while 2^i - 1 stays one bucket down.
	cases := []struct {
		v  int64
		le int64 // expected inclusive upper bound of the hit bucket
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{1023, 1023},
		{1024, 2047},
		{math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		h := NewHistogram()
		h.Observe(c.v)
		s := h.Snapshot("x")
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d populated buckets, want 1", c.v, len(s.Buckets))
		}
		if s.Buckets[0].Le != c.le {
			t.Errorf("Observe(%d) landed in le=%d, want le=%d", c.v, s.Buckets[0].Le, c.le)
		}
	}
}

func TestHistogramBucketBoundsConsistent(t *testing.T) {
	// Every bucket's range must be [lower, upper] with lower <= upper and
	// bucket i+1 starting right after bucket i ends.
	for i := 1; i < 63; i++ {
		if bucketLower(i) != BucketUpper(i-1)+1 {
			t.Fatalf("bucket %d: lower %d does not follow upper %d of bucket %d",
				i, bucketLower(i), BucketUpper(i-1), i-1)
		}
	}
	if BucketUpper(NumHistogramBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", BucketUpper(NumHistogramBuckets-1))
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 10, 100, 1000} {
		h.Observe(v)
	}
	h.ObserveDuration(5 * time.Nanosecond)
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 1116 {
		t.Fatalf("Sum = %d, want 1116", h.Sum())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// With all mass in one bucket, every quantile estimate must stay
	// inside that bucket's range.
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(700) // bucket [512, 1023]
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		est := h.Quantile(q)
		if est < 512 || est > 1023 {
			t.Errorf("Quantile(%g) = %g, outside [512, 1023]", q, est)
		}
	}
	if h.Quantile(0) >= h.Quantile(1) {
		t.Errorf("Quantile not monotone: q0=%g q1=%g", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramQuantileSplitsMass(t *testing.T) {
	// 90 small + 10 large observations: p50 must report small, p99 large.
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(100) // [64, 127]
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // [65536, 131071]
	}
	if p50 := h.Quantile(0.50); p50 > 127 {
		t.Errorf("p50 = %g, want <= 127", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 65536 {
		t.Errorf("p99 = %g, want >= 65536", p99)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile = %g, want 0", q)
	}
	s := h.Snapshot("empty")
	if s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)   // le 1
	h.Observe(3)   // le 3
	h.Observe(3)   // le 3
	h.Observe(500) // le 511
	s := h.Snapshot("lat")
	if s.Count != 4 || s.Sum != 507 {
		t.Fatalf("snapshot count/sum = %d/%d", s.Count, s.Sum)
	}
	if b := bucketOf(s, 1); b == nil || b.Count != 1 {
		t.Fatalf("le=1 bucket = %+v, want cumulative 1", b)
	}
	if b := bucketOf(s, 3); b == nil || b.Count != 3 {
		t.Fatalf("le=3 bucket = %+v, want cumulative 3", b)
	}
	if b := bucketOf(s, 511); b == nil || b.Count != 4 {
		t.Fatalf("le=511 bucket = %+v, want cumulative 4", b)
	}
	// Cumulative counts never decrease.
	prev := int64(0)
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("buckets not cumulative: %+v", s.Buckets)
		}
		prev = b.Count
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("concurrent Count = %d, want 8000", h.Count())
	}
	want := int64(8 * 999 * 1000 / 2)
	if h.Sum() != want {
		t.Fatalf("concurrent Sum = %d, want %d", h.Sum(), want)
	}
	s := h.Snapshot("c")
	if s.Buckets[len(s.Buckets)-1].Count != 8000 {
		t.Fatalf("last cumulative bucket = %d, want 8000", s.Buckets[len(s.Buckets)-1].Count)
	}
}
