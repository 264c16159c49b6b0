package obs

import (
	"math"
	"testing"

	"numastream/internal/metrics"
)

// The cluster aligner scrapes many nodes on independent clocks, so the
// diff engine constantly sees degenerate inputs: empty diffs (a node
// that ticked twice with no traffic), zero-width time spans (two
// scrapes landing on the same stamp), and counter resets (a node
// restarting mid-run). None of those may produce negative rates, NaN
// quantiles, or phantom verdicts.

func TestHistDiffEmpty(t *testing.T) {
	bars, n, sum := histDiff(HistState{}, HistState{})
	if len(bars) != 0 || n != 0 || sum != 0 {
		t.Fatalf("empty diff: bars=%v n=%d sum=%d, want all zero", bars, n, sum)
	}
	if q := barsQuantile(bars, n, 0.99); q != 0 {
		t.Fatalf("empty diff p99 = %g, want 0", q)
	}
}

func TestHistDiffIdenticalSnapshots(t *testing.T) {
	h := HistState{Count: 10, Sum: 1000, Buckets: []metrics.HistogramBucket{{Le: 127, Count: 4}, {Le: 255, Count: 10}}}
	bars, n, sum := histDiff(h, h)
	if len(bars) != 0 || n != 0 || sum != 0 {
		t.Fatalf("identical diff: bars=%v n=%d sum=%d, want all zero", bars, n, sum)
	}
}

func TestHistDiffCounterReset(t *testing.T) {
	prev := HistState{Count: 100, Sum: 50000, Buckets: []metrics.HistogramBucket{{Le: 511, Count: 100}}}
	cur := HistState{Count: 3, Sum: 300, Buckets: []metrics.HistogramBucket{{Le: 127, Count: 3}}}
	bars, n, sum := histDiff(prev, cur)
	if n != 3 || sum != 300 {
		t.Fatalf("reset diff: n=%d sum=%d, want the young life's totals (3, 300)", n, sum)
	}
	if len(bars) != 1 || bars[0].n != 3 {
		t.Fatalf("reset diff bars = %+v, want cur's full distribution", bars)
	}
	if q := barsQuantile(bars, n, 0.99); q <= 0 || q > 127 {
		t.Fatalf("reset diff p99 = %g, want within cur's only bucket", q)
	}
}

func TestDiffZeroWidthWindow(t *testing.T) {
	s0 := Snapshot{
		T:      5,
		Meters: map[string]MeterState{"compress": {Bytes: 1000, Items: 1}},
		Gauges: map[string]float64{"sendq_depth": 3, "sendq_put_blocked_secs": 1},
	}
	s1 := Snapshot{
		T:      5, // same stamp: zero-width span
		Meters: map[string]MeterState{"compress": {Bytes: 9000, Items: 9}},
		Gauges: map[string]float64{"sendq_depth": 7, "sendq_put_blocked_secs": 4},
	}
	w := Diff(s0, s1, nil)
	if w.Dur != 0 {
		t.Fatalf("Dur = %g, want 0", w.Dur)
	}
	for _, st := range w.Stages {
		if math.IsNaN(st.Gbps) || math.IsInf(st.Gbps, 0) || st.Gbps != 0 {
			t.Fatalf("stage %s Gbps = %g over a zero-width window, want 0", st.Stage, st.Gbps)
		}
	}
	for _, q := range w.Queues {
		if math.IsNaN(q.PutBlockedShare) || math.IsInf(q.PutBlockedShare, 0) || q.PutBlockedShare != 0 {
			t.Fatalf("queue %s PutBlockedShare = %g over a zero-width window, want 0", q.Queue, q.PutBlockedShare)
		}
	}
}

func TestDiffCounterReset(t *testing.T) {
	prev := Snapshot{
		T: 10,
		Meters: map[string]MeterState{
			"compress":           {Bytes: 1 << 30, Items: 100},
			"delivered_stream_0": {Bytes: 1 << 30, Items: 100},
		},
		Counters: map[string]int64{"reroutes": 40},
		Gauges: map[string]float64{
			"sendq_depth": 2, "sendq_put_blocked_secs": 50,
			"bufpool_hits": 1000, "bufpool_misses": 900,
		},
		Hists: map[string]HistState{
			"compress_latency_ns": {Count: 100, Sum: 1e9, Buckets: []metrics.HistogramBucket{{Le: 1 << 20, Count: 100}}},
		},
	}
	// The node restarted: every cumulative series is younger than prev.
	cur := Snapshot{
		T: 11,
		Meters: map[string]MeterState{
			"compress":           {Bytes: 4096, Items: 2},
			"delivered_stream_0": {Bytes: 2048, Items: 1},
		},
		Counters: map[string]int64{"reroutes": 0},
		Gauges: map[string]float64{
			"sendq_depth": 1, "sendq_put_blocked_secs": 0.1,
			"bufpool_hits": 10, "bufpool_misses": 2,
		},
		Hists: map[string]HistState{
			"compress_latency_ns": {Count: 2, Sum: 2000, Buckets: []metrics.HistogramBucket{{Le: 1023, Count: 2}}},
		},
	}
	w := Diff(prev, cur, nil)
	for _, st := range w.Stages {
		if st.Gbps < 0 || st.Items < 0 || st.Busy < 0 || math.IsNaN(st.LatP50Ms) {
			t.Fatalf("stage %s went negative across a reset: %+v", st.Stage, st)
		}
	}
	for _, q := range w.Queues {
		if q.PutBlockedShare < 0 || q.GetBlockedShare < 0 {
			t.Fatalf("queue %s blocked share negative across a reset: %+v", q.Queue, q)
		}
	}
	if w.Pool.Gets < 0 || w.Pool.Misses < 0 || w.Pool.MissShare < 0 {
		t.Fatalf("pool window negative across a reset: %+v", w.Pool)
	}
	if w.Churn.Reroutes != 0 || w.Churn.Total != 0 {
		t.Fatalf("churn counted a reset as events: %+v", w.Churn)
	}
	for _, sh := range w.Streams {
		if sh.Gbps < 0 {
			t.Fatalf("stream %s Gbps = %g across a reset, want >= 0", sh.Stream, sh.Gbps)
		}
	}
}

// TestEngineDropCounters: the bounded rings' drop counts surface as
// registry counters, so a starved engine is visible on /metrics.
func TestEngineDropCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	m := reg.Meter("compress")
	e := NewEngine(reg, Options{})
	// DefaultWindowCap+4 observations → DefaultWindowCap+3 windows → 3
	// dropped past the cap.
	for i := 0; i < DefaultWindowCap+4; i++ {
		m.Add(1 << 20)
		e.Observe(Capture(reg, float64(i)))
	}
	if got := reg.CounterValue(CtrWindowDrops); got != 3 {
		t.Fatalf("%s = %d, want 3", CtrWindowDrops, got)
	}
	if n := len(e.Windows()); n != DefaultWindowCap {
		t.Fatalf("retained windows = %d, want %d", n, DefaultWindowCap)
	}
	st := e.Status(false)
	if st.Dropped != 3 {
		t.Fatalf("Status.Dropped = %d, want 3", st.Dropped)
	}
}
