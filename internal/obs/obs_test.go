package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"numastream/internal/metrics"
)

// cumBuckets builds a cumulative populated-buckets slice from (le,
// count-at-or-below) pairs, the shape metrics.HistogramSnapshot emits.
func cumBuckets(pairs ...int64) []metrics.HistogramBucket {
	var out []metrics.HistogramBucket
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, metrics.HistogramBucket{Le: pairs[i], Count: pairs[i+1]})
	}
	return out
}

func TestHistDiffWindowedQuantiles(t *testing.T) {
	prev := HistState{Count: 4, Sum: 40, Buckets: cumBuckets(7, 2, 15, 4)}
	cur := HistState{Count: 14, Sum: 400, Buckets: cumBuckets(7, 2, 15, 8, 31, 14)}
	bars, n, sum := histDiff(prev, cur)
	if n != 10 || sum != 360 {
		t.Fatalf("window count/sum = %d/%d, want 10/360", n, sum)
	}
	// The window saw 4 obs in (7, 15] and 6 in (15, 31]; prev's 2 below 7
	// cancel out entirely.
	if len(bars) != 2 || bars[0].n != 4 || bars[1].n != 6 {
		t.Fatalf("bars = %+v", bars)
	}
	p50 := barsQuantile(bars, n, 0.50)
	if p50 < 16 || p50 > 31 {
		t.Fatalf("p50 = %v, want within the (15, 31] bucket", p50)
	}
	if q := barsQuantile(bars, n, 1.0); q != 31 {
		t.Fatalf("p100 = %v, want 31", q)
	}
	if q := barsQuantile(nil, 0, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestCaptureScrapesRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Meter("compress").Add(1000)
	reg.Counter("reroutes").Add(3)
	reg.Gauge("sendq_depth").Set(7)
	reg.Histogram("compress_latency_ns").Observe(500)
	s := Capture(reg, 2.5)
	if s.T != 2.5 {
		t.Fatalf("T = %v", s.T)
	}
	if s.Meters["compress"].Bytes != 1000 || s.Meters["compress"].Items != 1 {
		t.Fatalf("meter state = %+v", s.Meters["compress"])
	}
	if s.Counters["reroutes"] != 3 || s.Gauges["sendq_depth"] != 7 {
		t.Fatalf("counter/gauge missing: %+v %+v", s.Counters, s.Gauges)
	}
	if h := s.Hists["compress_latency_ns"]; h.Count != 1 || h.Sum != 500 {
		t.Fatalf("hist state = %+v", h)
	}
	if got := Capture(nil, 1).T; got != 1 {
		t.Fatalf("nil-registry capture T = %v", got)
	}
}

func TestVerdictIdle(t *testing.T) {
	w := Diff(Snapshot{T: 0}, Snapshot{T: 1}, nil)
	if w.Verdict != VerdictIdle {
		t.Fatalf("verdict = %s, want idle", w.Verdict)
	}
}

func TestVerdictChurnOutranksEverything(t *testing.T) {
	prev := Snapshot{T: 0, Counters: map[string]int64{"reroutes": 0}}
	cur := Snapshot{T: 1,
		Counters: map[string]int64{"reroutes": 5},
		Gauges: map[string]float64{
			"sendq_depth": 10, "sendq_put_blocked_secs": 0.9, "sendq_get_blocked_secs": 0,
		},
		Meters: map[string]MeterState{"send": {Bytes: 1 << 30}},
	}
	w := Diff(prev, cur, nil)
	if w.Verdict != VerdictChurnDegraded {
		t.Fatalf("verdict = %s, want churn-degraded (evidence %v)", w.Verdict, w.Evidence)
	}
	if w.Churn.Reroutes != 5 || w.Churn.Total != 5 {
		t.Fatalf("churn window = %+v", w.Churn)
	}
}

func TestVerdictPoolStarved(t *testing.T) {
	prev := Snapshot{T: 0, Gauges: map[string]float64{"bufpool_hits": 0, "bufpool_misses": 0, "bufpool_steals": 0}}
	cur := Snapshot{T: 1,
		Gauges: map[string]float64{"bufpool_hits": 10, "bufpool_misses": 20, "bufpool_steals": 10},
		Meters: map[string]MeterState{"compress": {Bytes: 1 << 20}},
	}
	w := Diff(prev, cur, nil)
	if w.Verdict != VerdictPoolStarved {
		t.Fatalf("verdict = %s, want pool-starved (evidence %v)", w.Verdict, w.Evidence)
	}
	if w.Pool.Gets != 40 || w.Pool.MissShare != 0.75 {
		t.Fatalf("pool window = %+v", w.Pool)
	}
	if want := (Limiter{Name: "bufpool", Rule: RulePool, Share: 0.75}); w.Limiter != want {
		t.Fatalf("limiter = %+v, want %+v", w.Limiter, want)
	}
}

// queueGauges builds the three per-queue series for one queue.
func queueGauges(dst map[string]float64, q string, depth, putBlocked, getBlocked float64) {
	dst[q+"_depth"] = depth
	dst[q+"_put_blocked_secs"] = putBlocked
	dst[q+"_get_blocked_secs"] = getBlocked
}

func TestVerdictBackpressureWalkPicksDownstreamMost(t *testing.T) {
	mk := func(comp, send, dec float64) Window {
		prev := Snapshot{T: 0, Gauges: map[string]float64{}}
		queueGauges(prev.Gauges, "compq", 0, 0, 0)
		queueGauges(prev.Gauges, "sendq", 0, 0, 0)
		queueGauges(prev.Gauges, "decq", 0, 0, 0)
		cur := Snapshot{T: 1, Gauges: map[string]float64{},
			Meters: map[string]MeterState{"send": {Bytes: 1 << 30}}}
		queueGauges(cur.Gauges, "compq", 4, comp, 0)
		queueGauges(cur.Gauges, "sendq", 4, send, 0)
		queueGauges(cur.Gauges, "decq", 4, dec, 0)
		return Diff(prev, cur, nil)
	}
	for _, c := range []struct {
		comp, send, dec float64
		verdict         Verdict
		limiter         Limiter
	}{
		{0.9, 0, 0, VerdictCompressBound, Limiter{Name: "compq", Rule: RuleBackpressure, Share: 0.9}},
		{0.9, 0.9, 0, VerdictWireBound, Limiter{Name: "sendq", Rule: RuleBackpressure, Share: 0.9}},
		{0.9, 0.9, 0.9, VerdictConsumerBound, Limiter{Name: "decq", Rule: RuleBackpressure, Share: 0.9}},
		// Below the floor nothing is "blocked"; the deepest-queue
		// fallback names the consumer of the deepest queue instead
		// (equal depths: the first in pipeline order).
		{0.1, 0.1, 0.1, VerdictCompressBound, Limiter{Name: "compq", Rule: RuleDeepestQueue, Share: 0.1}},
	} {
		w := mk(c.comp, c.send, c.dec)
		if w.Verdict != c.verdict || w.Limiter != c.limiter {
			t.Fatalf("compq/sendq/decq blocked %.1f/%.1f/%.1f: %s blaming %+v, want %s blaming %+v (evidence %v)",
				c.comp, c.send, c.dec, w.Verdict, w.Limiter, c.verdict, c.limiter, w.Evidence)
		}
	}
}

func TestVerdictBusiestStageFallback(t *testing.T) {
	prev := Snapshot{T: 0,
		Meters: map[string]MeterState{"compress": {}},
		Hists:  map[string]HistState{"compress_latency_ns": {}},
	}
	cur := Snapshot{T: 1,
		Meters: map[string]MeterState{"compress": {Bytes: 1 << 28, Items: 10}},
		Hists: map[string]HistState{"compress_latency_ns": {
			Count: 10, Sum: int64(800 * time.Millisecond),
			Buckets: cumBuckets(int64(1<<27)-1, 10),
		}},
	}
	w := Diff(prev, cur, map[string]int{"compress": 1})
	if w.Verdict != VerdictCompressBound || w.Limiter.Name != "compress" || w.Limiter.Rule != RuleBusiestStage {
		t.Fatalf("verdict = %s blaming %+v (evidence %v)", w.Verdict, w.Limiter, w.Evidence)
	}
	st := w.Stages[0]
	if st.Busy < 0.79 || st.Busy > 0.81 {
		t.Fatalf("busy = %v, want ~0.8", st.Busy)
	}
	if st.Util < 0.79 || st.Util > 0.81 {
		t.Fatalf("util = %v, want ~0.8 with 1 worker", st.Util)
	}
	if st.LatP99Ms <= 0 {
		t.Fatalf("windowed latency quantile missing: %+v", st)
	}
}

func TestStreamHealthScoreboard(t *testing.T) {
	prev := Snapshot{T: 0, Meters: map[string]MeterState{"delivered_stream_3": {}}}
	cur := Snapshot{T: 1,
		Meters: map[string]MeterState{
			"delivered_stream_3":     {Bytes: 1e9 / 8, Items: 12},
			"delivered_stream_other": {Bytes: 500, Items: 1},
		},
		Counters: map[string]int64{
			"dup_drops_stream_3": 2,
			"reroutes_stream_3":  1,
		},
		Gauges: map[string]float64{"ledger_holes_stream_3": 4},
		Hists: map[string]HistState{"chunk_e2e_stream_3_ns": {
			Count: 12, Sum: 12e6, Buckets: cumBuckets(int64(1<<20)-1, 12),
		}},
	}
	w := Diff(prev, cur, nil)
	if len(w.Streams) != 2 {
		t.Fatalf("streams = %+v", w.Streams)
	}
	s3 := w.Streams[0]
	if s3.Stream != "3" || w.Streams[1].Stream != "other" {
		t.Fatalf("order = %s, %s; want 3, other", w.Streams[0].Stream, w.Streams[1].Stream)
	}
	if s3.Gbps < 0.99 || s3.Gbps > 1.01 {
		t.Fatalf("gbps = %v, want ~1", s3.Gbps)
	}
	if s3.Chunks != 12 || s3.Holes != 4 || s3.Dups != 2 || s3.Reroutes != 1 {
		t.Fatalf("row = %+v", s3)
	}
	if s3.E2EP50Ms <= 0 {
		t.Fatalf("e2e quantile missing: %+v", s3)
	}
}

// TestScoreboardCapKeepsUnhealthyAndSlowest: LimitStreams must never
// drop an unhealthy row, fill the remainder with the slowest healthy
// streams, and account for what it dropped.
func TestScoreboardCapKeepsUnhealthyAndSlowest(t *testing.T) {
	w := Window{}
	for i := 0; i < 20; i++ {
		sh := StreamHealth{
			Stream: fmt.Sprintf("%d", i),
			Gbps:   float64(i), // stream 0 slowest, 19 fastest
		}
		if i == 17 {
			sh.Holes = 3 // fast but unhealthy: must survive the cap
		}
		if i == 19 {
			sh.Dups = 1
		}
		w.Streams = append(w.Streams, sh)
	}
	w.LimitStreams(5)
	if w.StreamsTotal != 20 || w.StreamsOmitted != 15 {
		t.Fatalf("total/omitted = %d/%d, want 20/15", w.StreamsTotal, w.StreamsOmitted)
	}
	if len(w.Streams) != 5 {
		t.Fatalf("kept %d rows, want 5", len(w.Streams))
	}
	kept := map[string]bool{}
	for _, sh := range w.Streams {
		kept[sh.Stream] = true
	}
	for _, want := range []string{"17", "19", "0", "1", "2"} {
		if !kept[want] {
			t.Fatalf("stream %s missing from capped scoreboard %v", want, w.Streams)
		}
	}
	// Rows come back in scoreboard order, not triage order.
	for i := 1; i < len(w.Streams); i++ {
		if !streamLabelLess(w.Streams[i-1].Stream, w.Streams[i].Stream) {
			t.Fatalf("capped rows out of order: %v", w.Streams)
		}
	}

	// Under the cap: totals recorded, nothing dropped.
	small := Window{Streams: []StreamHealth{{Stream: "1"}, {Stream: "other"}}}
	small.LimitStreams(5)
	if small.StreamsTotal != 2 || small.StreamsOmitted != 0 || len(small.Streams) != 2 {
		t.Fatalf("under-cap window mangled: %+v", small)
	}
}

// TestEngineScoreboardMaxFlowsThroughObserve: the engine applies the
// scoreboard cap to every window it produces.
func TestEngineScoreboardMaxFlowsThroughObserve(t *testing.T) {
	const streams = DefaultScoreboardMax + 4
	e := NewEngine(nil, Options{})
	mk := func(t float64, scale int64) Snapshot {
		m := map[string]MeterState{}
		for i := 0; i < streams; i++ {
			m[fmt.Sprintf("delivered_stream_%d", i)] = MeterState{Bytes: scale * int64(i+1), Items: scale}
		}
		return Snapshot{T: t, Meters: m}
	}
	e.Observe(mk(0, 0))
	w := e.Observe(mk(1, 1000))
	if w == nil {
		t.Fatal("no window")
	}
	if len(w.Streams) != DefaultScoreboardMax || w.StreamsTotal != streams || w.StreamsOmitted != 4 {
		t.Fatalf("rows %d total %d omitted %d, want %d/%d/4", len(w.Streams), w.StreamsTotal, w.StreamsOmitted, DefaultScoreboardMax, streams)
	}
}

func TestEngineRegimesAndRings(t *testing.T) {
	e := NewEngine(nil, Options{})
	if w := e.Observe(Snapshot{T: 0}); w != nil {
		t.Fatalf("first snapshot produced a window")
	}
	// Enough windows to overflow both rings; an even count ends quiet.
	const windows = DefaultRegimeCap + 4
	churn := int64(0)
	for i := 1; i <= windows; i++ {
		// Alternate churny and quiet windows: every snapshot flips the
		// verdict, so each window appends a regime transition.
		if i%2 == 1 {
			churn++
		}
		e.Observe(Snapshot{T: float64(i), Counters: map[string]int64{"reroutes": churn}})
	}
	if got := len(e.Windows()); got != DefaultWindowCap {
		t.Fatalf("window ring = %d, want cap %d", got, DefaultWindowCap)
	}
	if got := len(e.Regimes()); got != DefaultRegimeCap {
		t.Fatalf("regime ring = %d, want cap %d", got, DefaultRegimeCap)
	}
	if v := e.verdict; v != VerdictIdle {
		t.Fatalf("final verdict = %s, want idle (last window quiet)", v)
	}

	var buf bytes.Buffer
	if err := WriteRegimesJSONL(&buf, e.Regimes()); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r Regime
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if r.From == r.To {
			t.Fatalf("non-transition logged: %+v", r)
		}
		lines++
	}
	if lines != DefaultRegimeCap {
		t.Fatalf("JSONL lines = %d", lines)
	}
}

func TestEngineStatus(t *testing.T) {
	e := NewEngine(nil, Options{Node: "n1"})
	e.Observe(Snapshot{T: 0})
	e.Observe(Snapshot{T: 1, Meters: map[string]MeterState{"delivered_stream_7": {Bytes: 100, Items: 1}}})
	st := e.Status(true)
	if st.Node != "n1" || st.Window == nil || st.Windows != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Streams) != 1 || st.Streams[0].Stream != "7" {
		t.Fatalf("scoreboard = %+v", st.Streams)
	}
	if len(st.Window.Streams) != 0 {
		t.Fatalf("scoreboard duplicated inside window")
	}
	if len(e.Status(false).Streams) != 0 {
		t.Fatalf("streams included without ?streams=1")
	}
	var text bytes.Buffer
	st.WriteText(&text)
	if !strings.Contains(text.String(), "verdict=") || !strings.Contains(text.String(), "stream 7") {
		t.Fatalf("text status:\n%s", text.String())
	}
}

func TestEngineStartStopTicks(t *testing.T) {
	reg := metrics.NewRegistry()
	m := reg.Meter("compress")
	e := NewEngine(reg, Options{Interval: 2 * time.Millisecond})
	e.Start()
	m.Add(4096)
	time.Sleep(20 * time.Millisecond)
	e.Stop()
	e.Stop() // idempotent
	if len(e.Windows()) == 0 {
		t.Fatalf("no windows after Start/Stop")
	}
}

func TestReportShapeAndDominant(t *testing.T) {
	windows := []Window{
		{T0: 0, T1: 1, Dur: 1, Verdict: VerdictCompressBound, Evidence: []string{"e1"}},
		{T0: 1, T1: 2, Dur: 1, Verdict: VerdictWireBound},
		{T0: 2, T1: 4, Dur: 2, Verdict: VerdictWireBound},
	}
	regimes := []Regime{{T: 1, From: string(VerdictCompressBound), To: string(VerdictWireBound)}}
	rep := BuildReport("n1", windows, regimes, 3)
	if rep.Dominant != VerdictWireBound {
		t.Fatalf("dominant = %s", rep.Dominant)
	}
	if rep.Shares["wire-bound"] != 0.75 || rep.Shares["compress-bound"] != 0.25 {
		t.Fatalf("shares = %+v", rep.Shares)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	// The report contract the Makefile drill asserts: exactly one "t0"
	// and one "verdict" key per window, and a top-level "dominant".
	if got := strings.Count(js, `"t0":`); got != len(windows) {
		t.Fatalf(`"t0": count = %d, want %d in %s`, got, len(windows), js)
	}
	if got := strings.Count(js, `"verdict":`); got != len(windows) {
		t.Fatalf(`"verdict": count = %d, want %d`, got, len(windows))
	}
	if !strings.Contains(js, `"dominant":"wire-bound"`) {
		t.Fatalf("dominant key missing: %s", js)
	}

	md := rep.Markdown()
	for _, want := range []string{"wire-bound", "| t0 |", "Regime transitions", "3 early windows dropped"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}

	if rep := BuildReport("", nil, nil, 0); rep.Dominant != VerdictIdle {
		t.Fatalf("empty report dominant = %s", rep.Dominant)
	}
}

// TestReportMarkdownTiedShares: tied shares render in key order, so one
// report renders the same bytes every time.
func TestReportMarkdownTiedShares(t *testing.T) {
	rep := BuildReport("n1", []Window{
		{T0: 0, T1: 1, Dur: 1, Verdict: VerdictWireBound},
		{T0: 1, T1: 2, Dur: 1, Verdict: VerdictCompressBound},
	}, nil, 0)
	if rep.Dominant != VerdictCompressBound {
		t.Fatalf("dominant = %s, want compress-bound (ties go to the first key)", rep.Dominant)
	}
	first := rep.Markdown()
	if i, j := strings.Index(first, "- compress-bound: 50%"), strings.Index(first, "- wire-bound: 50%"); i < 0 || j < i {
		t.Fatalf("tied shares not in key order:\n%s", first)
	}
	for i := 0; i < 200; i++ {
		if md := rep.Markdown(); md != first {
			t.Fatalf("render %d differs from the first:\n%s\n---\n%s", i, md, first)
		}
	}
}

func TestWriteReportFile(t *testing.T) {
	rep := BuildReport("n", []Window{{T0: 0, T1: 1, Dur: 1, Verdict: VerdictIdle}}, nil, 0)
	jsonPath := t.TempDir() + "/r.json"
	mdPath := t.TempDir() + "/r.md"
	if err := WriteReportFile(jsonPath, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportFile(mdPath, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report JSON round-trip: %v", err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(md), "# Run self-diagnosis") {
		t.Fatalf("markdown report:\n%s", md)
	}
}
