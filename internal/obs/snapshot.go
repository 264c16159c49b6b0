// Package obs turns the flight recorder's raw series into verdicts: a
// snapshot-diff engine that periodically captures every registered
// meter, counter, gauge and histogram, diffs consecutive snapshots into
// windowed rates, derives per-stage utilization, backpressure,
// NUMA-pool pressure and churn pressure from them, and names the
// dominant bottleneck of each window — compress-bound, wire-bound,
// consumer-bound, pool-starved, churn-degraded or idle — with the
// evidence that produced it. Regime transitions append to a bounded
// event log renderable as JSONL. This is the sensor layer the roadmap's
// adaptive placement controller consumes, and it feeds the telemetry
// server's /status endpoint and the binaries' -report artifacts.
//
// Everything here runs off the hot path: a snapshot is a scrape (a few
// atomic loads per series) taken on the observer's own clock — wall
// time for real pipelines, virtual time when a simulation feeds
// snapshots in by hand — and diffing happens on the observer goroutine.
// The pipeline workers never see it.
package obs

import (
	"numastream/internal/metrics"
)

// MeterState is a meter's cumulative totals at snapshot time.
type MeterState struct {
	Bytes int64
	Items int64
}

// HistState is a histogram's cumulative state at snapshot time. Buckets
// are the populated cumulative buckets of metrics.HistogramSnapshot;
// diffing two states bucket-by-bucket yields the observation
// distribution within a window.
type HistState struct {
	Count   int64
	Sum     int64
	Buckets []metrics.HistogramBucket
}

// Snapshot is one point-in-time capture of a registry (or of a
// simulation's equivalent series). T is seconds on the run's clock —
// wall-clock seconds since the engine started for real pipelines,
// virtual seconds for simulated ones. All maps may be nil.
type Snapshot struct {
	T        float64
	Meters   map[string]MeterState
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]HistState
	// GaugeGens holds each callback gauge's registration count
	// (metrics.GaugeSnapshot.Gen); a change marks a replaced callback.
	GaugeGens map[string]int
}

// Capture scrapes reg into a Snapshot stamped with time t. Callback
// gauges are polled (outside the registry lock, per GaugeSnapshots), so
// queue depths and blocked-time series reflect the live instant.
func Capture(reg *metrics.Registry, t float64) Snapshot {
	s := Snapshot{T: t}
	if reg == nil {
		return s
	}
	meters := reg.Snapshots()
	s.Meters = make(map[string]MeterState, len(meters))
	for _, m := range meters {
		s.Meters[m.Name] = MeterState{Bytes: m.Bytes, Items: m.Items}
	}
	counters := reg.CounterSnapshots()
	s.Counters = make(map[string]int64, len(counters))
	for _, c := range counters {
		s.Counters[c.Name] = c.Value
	}
	gauges := reg.GaugeSnapshots()
	s.Gauges = make(map[string]float64, len(gauges))
	s.GaugeGens = make(map[string]int, len(gauges))
	for _, g := range gauges {
		s.Gauges[g.Name] = g.Value
		s.GaugeGens[g.Name] = g.Gen
	}
	hists := reg.HistogramSnapshots()
	s.Hists = make(map[string]HistState, len(hists))
	for _, h := range hists {
		s.Hists[h.Name] = HistState{Count: h.Count, Sum: h.Sum, Buckets: h.Buckets}
	}
	return s
}

// histWindow is the per-bucket observation counts that landed between
// two snapshots of one histogram, as (lower, upper, count) bars ready
// for quantile interpolation.
type histBar struct {
	lo, hi float64
	n      int64
}

// histDiff subtracts prev's cumulative buckets from cur's. Both lists
// are populated-only and sorted by le, so prev's cumulative count is a
// step function: at any le it is the count of the largest prev bucket
// at or below it — an le absent from prev inherits the step, it does
// not read as zero.
func histDiff(prev, cur HistState) (bars []histBar, count int64, sum int64) {
	if cur.Count < prev.Count {
		// Counter reset: the series restarted (process restart, registry
		// swap) and cur is a younger life than prev. Diffing against the
		// stale baseline would yield negative counts; treat cur as a
		// fresh distribution instead.
		prev = HistState{}
	}
	pi := 0
	prevStep := int64(0) // prev's cumulative count at the current le
	winCum := int64(0)   // window cumulative at the previous cur bucket
	for _, b := range cur.Buckets {
		for pi < len(prev.Buckets) && prev.Buckets[pi].Le <= b.Le {
			prevStep = prev.Buckets[pi].Count
			pi++
		}
		cum := b.Count - prevStep
		n := cum - winCum
		winCum = cum
		if n <= 0 {
			continue
		}
		bars = append(bars, histBar{lo: bucketLowerOf(b.Le), hi: float64(b.Le), n: n})
	}
	return bars, cur.Count - prev.Count, cur.Sum - prev.Sum
}

// bucketLowerOf reconstructs a log₂ bucket's inclusive lower bound from
// its upper (le) bound: buckets span [2^(i-1), 2^i - 1], so lower =
// (le+1)/2, with the ≤0 bucket at 0 and the saturated top bucket
// anchored at 2^62.
func bucketLowerOf(le int64) float64 {
	if le <= 0 {
		return 0
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	if le == maxInt64 {
		return float64(int64(1) << 62)
	}
	return float64((le + 1) / 2)
}

// barsQuantile interpolates the q-quantile of a windowed distribution.
func barsQuantile(bars []histBar, total int64, q float64) float64 {
	if total <= 0 {
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
	for _, b := range bars {
		next := cum + float64(b.n)
		if next >= target {
			frac := (target - cum) / float64(b.n)
			return b.lo + frac*(b.hi-b.lo)
		}
		cum = next
	}
	if len(bars) > 0 {
		return bars[len(bars)-1].hi
	}
	return 0
}
