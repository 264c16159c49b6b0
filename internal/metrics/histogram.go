package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistogramBuckets is the fixed bucket count of a Histogram: bucket 0
// holds values <= 0 and bucket i (i >= 1) holds values whose binary
// length is i, i.e. the range [2^(i-1), 2^i - 1]. Log-scale buckets span
// one nanosecond to ~292 years when observations are durations, with a
// constant ~2x relative error on quantile estimates — the right trade
// for a histogram that sits on a 100 Gbps hot path and must never
// allocate or take a lock.
const NumHistogramBuckets = 65

// Histogram is a fixed-bucket log₂-scale histogram of int64 observations
// (stage latencies in nanoseconds, queue waits, chunk sizes). Recording
// is three uncontended atomic adds, and snapshots estimate quantiles by
// linear interpolation inside the hit bucket. All methods are safe for
// concurrent use.
type Histogram struct {
	counts [NumHistogramBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketOf maps an observation to its bucket index.
func histBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus "le" value). The last bucket's bound is MaxInt64.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return 1<<uint(i) - 1
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[histBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (q in [0,1]) by walking the
// cumulative bucket counts and interpolating linearly inside the hit
// bucket. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [NumHistogramBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileOf(counts[:], total, q)
}

func quantileOf(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := float64(bucketLower(i)), float64(BucketUpper(i))
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / float64(n)
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(BucketUpper(len(counts) - 1))
}

// HistogramBucket is one populated bucket in a snapshot. Count is
// cumulative (all observations <= Le), matching Prometheus exposition.
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"` // populated buckets only, cumulative
}

// Snapshot captures the histogram under the given name.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	var counts [NumHistogramBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Name:  name,
		Count: total,
		Sum:   h.sum.Load(),
		P50:   quantileOf(counts[:], total, 0.50),
		P90:   quantileOf(counts[:], total, 0.90),
		P99:   quantileOf(counts[:], total, 0.99),
	}
	cum := int64(0)
	for i, n := range counts {
		cum += n
		if n != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: BucketUpper(i), Count: cum})
		}
	}
	return s
}
