package experiments

import "testing"

func TestCurveRateGbps(t *testing.T) {
	// 125 MB per second is exactly 1 Gbps. Four points at t=1..4 with
	// cumulative bytes growing 125e6 per point, resampled into 4
	// buckets of 1s each: bucket 0 saw no point, buckets 1 and 2 one
	// delta each, bucket 3 (which owns t=3..4 and the clamped last
	// point) two.
	var pts []curvePoint
	for i := 1; i <= 4; i++ {
		pts = append(pts, curvePoint{T: float64(i), Bytes: int64(i) * 125e6})
	}
	secs, rates := rateGbps(pts, 4)
	if secs != 1 {
		t.Fatalf("bucketSecs = %g, want 1", secs)
	}
	want := []float64{0, 1, 1, 2}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestCurveRateGbpsOutageIsZeroThenBurst(t *testing.T) {
	// Cumulative bytes stall through the middle of the run, then jump:
	// step-function resampling must show zero buckets and a catch-up
	// burst, not smear the delta across the gap.
	var pts []curvePoint
	for i, c := range []int64{125e6, 125e6, 125e6, 500e6} {
		pts = append(pts, curvePoint{T: float64(i + 1), Bytes: c})
	}
	_, rates := rateGbps(pts, 4)
	want := []float64{0, 1, 0, 3}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v (zero outage bucket, then burst)", rates, want)
		}
	}
}

func TestCurveRateGbpsEmpty(t *testing.T) {
	secs, rates := rateGbps(nil, 3)
	if secs != 0 || len(rates) != 3 {
		t.Fatalf("empty curve: secs=%g rates=%v", secs, rates)
	}
	for _, r := range rates {
		if r != 0 {
			t.Fatalf("empty curve rates = %v", rates)
		}
	}
}
