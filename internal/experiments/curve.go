package experiments

// curvePoint is one delivery on a degraded run's dip-and-recovery
// curve: T is seconds since the run's origin — virtual time for the
// simulator, wall-clock time for the real loopback; the bucketing below
// does not care which — and Bytes the cumulative bytes delivered by
// then.
type curvePoint struct {
	T     float64
	Bytes int64
}

// rateGbps resamples a cumulative byte series into `buckets` equal time
// buckets spanning [0, last point] and returns the bucket width in
// seconds plus the per-bucket rate in Gbps. The cumulative series is
// treated as a step function (bytes land in the bucket of the point
// that first reports them), so an outage reads as a zero bucket
// followed by a catch-up burst — not smeared across the gap.
func rateGbps(pts []curvePoint, buckets int) (bucketSecs float64, rates []float64) {
	rates = make([]float64, buckets)
	if len(pts) == 0 {
		return 0, rates
	}
	span := pts[len(pts)-1].T
	if span <= 0 || buckets <= 0 {
		return 0, rates
	}
	bucketSecs = span / float64(buckets)
	// Single walk: assign each point's byte delta to its bucket.
	prev := int64(0)
	for _, p := range pts {
		b := int(p.T / bucketSecs)
		if b >= buckets {
			b = buckets - 1
		}
		rates[b] += float64(p.Bytes - prev)
		prev = p.Bytes
	}
	for i := range rates {
		rates[i] = rates[i] * 8 / 1e9 / bucketSecs
	}
	return bucketSecs, rates
}
