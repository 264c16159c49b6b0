package obs

import (
	"sort"
	"strings"
)

// StageWindow is one pipeline stage's windowed view: throughput over
// the window, busy time (worker-seconds of service time per wall
// second, from the stage latency histogram's sum delta), utilization
// (busy time over the seconds the stage's workers were live, from its
// <stage>_worker_secs series) and windowed latency/queue-wait quantiles.
type StageWindow struct {
	Stage      string  `json:"stage"`
	Gbps       float64 `json:"gbps"`
	Items      int64   `json:"items"`
	Busy       float64 `json:"busy"`           // worker-seconds per second
	Util       float64 `json:"util,omitempty"` // busy seconds / live-worker seconds
	LatP50Ms   float64 `json:"lat_p50_ms,omitempty"`
	LatP99Ms   float64 `json:"lat_p99_ms,omitempty"`
	QwaitP50Ms float64 `json:"qwait_p50_ms,omitempty"`
	QwaitP99Ms float64 `json:"qwait_p99_ms,omitempty"`
}

// QueueWindow is one inter-stage queue's windowed backpressure view.
// PutBlockedShare is producer blocked-seconds accrued in the window per
// wall second (it exceeds 1 when several producers block at once);
// GetBlockedShare likewise for starved consumers.
type QueueWindow struct {
	Queue           string  `json:"queue"`
	Depth           float64 `json:"depth"` // at window end
	PutBlockedShare float64 `json:"put_blocked_share"`
	GetBlockedShare float64 `json:"get_blocked_share"`
}

// PoolWindow is the buffer pool's windowed NUMA-pressure view: how many
// rentals the window saw and what share missed the local free list
// (miss = fresh allocation, steal = another domain's list served it —
// remote pages on the hot path either way).
type PoolWindow struct {
	Gets       int64              `json:"gets,omitempty"`
	Misses     int64              `json:"misses,omitempty"`
	Steals     int64              `json:"steals,omitempty"`
	Oversize   int64              `json:"oversize,omitempty"`
	MissShare  float64            `json:"miss_share,omitempty"`  // (misses+steals)/gets
	StealShare float64            `json:"steal_share,omitempty"` // steals/gets
	ByDomain   map[string]float64 `json:"outstanding_by_domain,omitempty"`
}

// ChurnWindow counts the window's churn events — topology and transport
// disruptions plus their delivery-side fallout. Total sums only the
// disruption counters; SeqGaps and SeqLate ride along for visibility
// but do not count (benign reordering across parallel receive workers
// bumps them on perfectly healthy runs).
type ChurnWindow struct {
	Reroutes     int64 `json:"reroutes,omitempty"`
	Failovers    int64 `json:"failovers,omitempty"`
	Redials      int64 `json:"redials,omitempty"`
	ConnDrops    int64 `json:"conn_drops,omitempty"`
	HorizonFails int64 `json:"horizon_fails,omitempty"`
	PeerDeaths   int64 `json:"peer_deaths,omitempty"`
	Quarantined  int64 `json:"quarantined,omitempty"`
	SeqGaps      int64 `json:"seq_gaps,omitempty"`
	SeqLate      int64 `json:"seq_late,omitempty"`
	DupDrops     int64 `json:"dup_drops,omitempty"`
	Abandoned    int64 `json:"abandoned,omitempty"`
	Total        int64 `json:"total"`
}

// StreamHealth is one stream's row in the health scoreboard: windowed
// delivery throughput, cumulative delivered totals, end-to-end latency
// quantiles (windowed when the window saw traced chunks, else
// cumulative), and the stream's loss/duplication/rerouting counters.
// Stream is the registry label — a decimal id, or "other" for streams
// folded past the cardinality cap.
type StreamHealth struct {
	Stream    string  `json:"stream"`
	Gbps      float64 `json:"gbps"`
	Bytes     int64   `json:"bytes"`
	Chunks    int64   `json:"chunks"`
	E2EP50Ms  float64 `json:"e2e_p50_ms,omitempty"`
	E2EP99Ms  float64 `json:"e2e_p99_ms,omitempty"`
	Holes     int64   `json:"holes,omitempty"`
	Dups      int64   `json:"dups,omitempty"`
	Reroutes  int64   `json:"reroutes,omitempty"`
	Failovers int64   `json:"failovers,omitempty"`
}

// Window is the diff of two consecutive snapshots: every derived signal
// over [T0, T1), plus the verdict naming the window's dominant
// bottleneck, the limiter it blamed and the evidence lines that
// produced it. StreamsTotal is
// the scoreboard's full row count before any LimitStreams cap;
// StreamsOmitted counts rows dropped by the cap (healthy, not-slowest
// streams — never an unhealthy row).
type Window struct {
	T0             float64        `json:"t0"`
	T1             float64        `json:"t1"`
	Dur            float64        `json:"dur"`
	Verdict        Verdict        `json:"verdict"`
	Limiter        Limiter        `json:"limiter"`
	Evidence       []string       `json:"evidence,omitempty"`
	Bytes          int64          `json:"bytes"` // bytes moved across all meters
	Stages         []StageWindow  `json:"stages,omitempty"`
	Queues         []QueueWindow  `json:"queues,omitempty"`
	Pool           PoolWindow     `json:"pool,omitempty"`
	Churn          ChurnWindow    `json:"churn,omitempty"`
	Streams        []StreamHealth `json:"streams,omitempty"`
	StreamsTotal   int            `json:"streams_total,omitempty"`
	StreamsOmitted int            `json:"streams_omitted,omitempty"`
}

// LimitStreams caps the scoreboard at max rows, recording the full
// count in StreamsTotal and the dropped count in StreamsOmitted. At a
// thousand streams the full scoreboard is the status payload's bulk,
// so the engine applies this per window; rows are kept by triage
// priority — every unhealthy row (holes, dups, reroutes, failovers)
// first, then the slowest healthy streams, which is where a fairness
// problem would surface.
func (w *Window) LimitStreams(max int) {
	w.StreamsTotal = len(w.Streams)
	if len(w.Streams) <= max {
		return
	}
	unhealthy := func(sh StreamHealth) bool {
		return sh.Holes > 0 || sh.Dups > 0 || sh.Reroutes > 0 || sh.Failovers > 0
	}
	rows := append([]StreamHealth(nil), w.Streams...)
	sort.SliceStable(rows, func(i, j int) bool {
		ui, uj := unhealthy(rows[i]), unhealthy(rows[j])
		if ui != uj {
			return ui
		}
		return rows[i].Gbps < rows[j].Gbps
	})
	kept := rows[:max]
	sort.Slice(kept, func(i, j int) bool { return streamLabelLess(kept[i].Stream, kept[j].Stream) })
	w.StreamsOmitted = w.StreamsTotal - max
	w.Streams = kept
}

// streamLabelLess orders scoreboard labels: numeric ids ascending,
// "other" last.
func streamLabelLess(li, lj string) bool {
	if (li == "other") != (lj == "other") {
		return lj == "other"
	}
	if len(li) != len(lj) {
		return len(li) < len(lj)
	}
	return li < lj
}

// stageNames is the pipeline order of the real-execution stages; the
// backpressure graph and the busy-share fallback walk it.
var stageNames = []string{"compress", "send", "receive", "decompress"}

// queueOrder ranks inter-stage queues in pipeline order (upstream
// first). The graph walks it in reverse: the most-downstream queue
// still under producer backpressure names the bottleneck.
var queueOrder = map[string]int{"compq": 0, "sendq": 1, "recvq": 2, "rxq": 2, "decq": 3}

// churnCounters are the counter series whose deltas make up a window's
// ChurnWindow, paired with setters. info-marked series are recorded but
// excluded from Total (they also fire on healthy runs).
var churnCounters = []struct {
	name string
	info bool
	add  func(*ChurnWindow, int64)
}{
	{name: "reroutes", add: func(c *ChurnWindow, v int64) { c.Reroutes = v }},
	{name: "relay_failovers", add: func(c *ChurnWindow, v int64) { c.Failovers = v }},
	{name: "msgq_redials", add: func(c *ChurnWindow, v int64) { c.Redials = v }},
	{name: "msgq_conn_drops", add: func(c *ChurnWindow, v int64) { c.ConnDrops = v }},
	{name: "msgq_horizon_fails", add: func(c *ChurnWindow, v int64) { c.HorizonFails = v }},
	{name: "peer_deaths", add: func(c *ChurnWindow, v int64) { c.PeerDeaths = v }},
	{name: "chunks_quarantined", add: func(c *ChurnWindow, v int64) { c.Quarantined = v }},
	{name: "seq_gaps", info: true, add: func(c *ChurnWindow, v int64) { c.SeqGaps = v }},
	{name: "seq_late", info: true, add: func(c *ChurnWindow, v int64) { c.SeqLate = v }},
	{name: "dup_drops", add: func(c *ChurnWindow, v int64) { c.DupDrops = v }},
	{name: "ledger_abandoned", add: func(c *ChurnWindow, v int64) { c.Abandoned = v }},
}

// delta is how much a cumulative series (a meter, a counter, a gauge of
// accumulated seconds or events) grew between two snapshots. A series
// that went down was reset — a restarted process, or a queue registered
// afresh under the same gauge name — so all it holds now accrued since
// the reset, and that is the window's delta. histDiff applies the same
// rule to histograms.
func delta[T int64 | float64](prev, cur T) T {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// gaugeDelta is delta over one gauge of two snapshots.
func gaugeDelta(prev, cur Snapshot, name string) float64 {
	return delta(prev.Gauges[name], cur.Gauges[name])
}

// queueDelta is gaugeDelta over a gauge of something that lives for one
// pipeline run: a queue's blocked seconds, a stage pool's live-worker
// seconds. A callback registered afresh under the name reads a new queue
// or pool, and its whole value is the window's delta even where it has
// already passed the old one's total. The buffer pool's gauges get no
// such rule: one pool serves several runs, and each run registers it
// again over the same counts.
func queueDelta(prev, cur Snapshot, name string) float64 {
	if prev.GaugeGens[name] != cur.GaugeGens[name] {
		return cur.Gauges[name]
	}
	return gaugeDelta(prev, cur, name)
}

// Diff computes the window between two consecutive snapshots. The
// verdict, limiter and evidence are filled by the classifier. The third
// argument is ignored: utilization reads each stage's worker series from
// the snapshots. The parameter stays while the benchmark harness
// (benchmark/layers.go) still passes nil to it.
func Diff(prev, cur Snapshot, _ map[string]int) Window {
	w := Window{T0: prev.T, T1: cur.T, Dur: cur.T - prev.T}
	if w.Dur <= 0 {
		w.Dur = 0
	}

	// Total bytes moved, across every meter: the idle detector's input.
	for name, m := range cur.Meters {
		w.Bytes += delta(prev.Meters[name].Bytes, m.Bytes)
	}

	// Per-stage signals.
	for _, stage := range stageNames {
		m, ok := cur.Meters[stage]
		if !ok {
			continue
		}
		pm := prev.Meters[stage]
		sw := StageWindow{Stage: stage, Items: delta(pm.Items, m.Items)}
		if w.Dur > 0 {
			sw.Gbps = float64(delta(pm.Bytes, m.Bytes)) * 8 / 1e9 / w.Dur
		}
		if lat, ok := cur.Hists[stage+"_latency_ns"]; ok {
			plat := prev.Hists[stage+"_latency_ns"]
			bars, n, sum := histDiff(plat, lat)
			if w.Dur > 0 {
				sw.Busy = float64(sum) / 1e9 / w.Dur
			}
			if n > 0 {
				sw.LatP50Ms = barsQuantile(bars, n, 0.50) / 1e6
				sw.LatP99Ms = barsQuantile(bars, n, 0.99) / 1e6
			}
			if live := queueDelta(prev, cur, stage+"_worker_secs"); live > 0 {
				sw.Util = float64(sum) / 1e9 / live
			}
		}
		if qw, ok := cur.Hists[stage+"_qwait_ns"]; ok {
			bars, n, _ := histDiff(prev.Hists[stage+"_qwait_ns"], qw)
			if n > 0 {
				sw.QwaitP50Ms = barsQuantile(bars, n, 0.50) / 1e6
				sw.QwaitP99Ms = barsQuantile(bars, n, 0.99) / 1e6
			}
		}
		w.Stages = append(w.Stages, sw)
	}

	// Queue backpressure: every "<q>_depth" gauge names a queue; its
	// split blocked-seconds series diff into per-second shares.
	for name, depth := range cur.Gauges {
		q, ok := strings.CutSuffix(name, "_depth")
		if !ok || strings.HasPrefix(q, "bufpool") {
			continue
		}
		qw := QueueWindow{Queue: q, Depth: depth}
		if w.Dur > 0 {
			qw.PutBlockedShare = queueDelta(prev, cur, q+"_put_blocked_secs") / w.Dur
			qw.GetBlockedShare = queueDelta(prev, cur, q+"_get_blocked_secs") / w.Dur
		}
		w.Queues = append(w.Queues, qw)
	}
	sort.Slice(w.Queues, func(i, j int) bool {
		oi, oki := queueOrder[w.Queues[i].Queue]
		oj, okj := queueOrder[w.Queues[j].Queue]
		if oki != okj {
			return oki // known pipeline queues first
		}
		if oi != oj {
			return oi < oj
		}
		return w.Queues[i].Queue < w.Queues[j].Queue
	})

	// Pool pressure.
	hits := int64(gaugeDelta(prev, cur, "bufpool_hits"))
	w.Pool.Misses = int64(gaugeDelta(prev, cur, "bufpool_misses"))
	w.Pool.Steals = int64(gaugeDelta(prev, cur, "bufpool_steals"))
	w.Pool.Oversize = int64(gaugeDelta(prev, cur, "bufpool_oversize"))
	w.Pool.Gets = hits + w.Pool.Misses + w.Pool.Steals
	if w.Pool.Gets > 0 {
		w.Pool.MissShare = float64(w.Pool.Misses+w.Pool.Steals) / float64(w.Pool.Gets)
		w.Pool.StealShare = float64(w.Pool.Steals) / float64(w.Pool.Gets)
	}
	for name, v := range cur.Gauges {
		if d, ok := strings.CutPrefix(name, "bufpool_outstanding_domain_"); ok {
			if w.Pool.ByDomain == nil {
				w.Pool.ByDomain = make(map[string]float64)
			}
			w.Pool.ByDomain[d] = v
		}
	}

	// Churn pressure.
	for _, cc := range churnCounters {
		if d := delta(prev.Counters[cc.name], cur.Counters[cc.name]); d > 0 {
			cc.add(&w.Churn, d)
			if !cc.info {
				w.Churn.Total += d
			}
		}
	}

	w.Streams = streamHealth(prev, cur, w.Dur)
	classify(&w)
	return w
}

// streamHealth builds the scoreboard rows from the per-stream series in
// cur, with throughput and latency windowed against prev.
func streamHealth(prev, cur Snapshot, dur float64) []StreamHealth {
	labels := map[string]bool{}
	scan := func(name, base, suffix string) (string, bool) {
		rest, ok := strings.CutPrefix(name, base+"_stream_")
		if !ok {
			return "", false
		}
		if suffix != "" {
			rest, ok = strings.CutSuffix(rest, suffix)
			if !ok {
				return "", false
			}
		}
		return rest, rest != "" && !strings.Contains(rest, "_")
	}
	for name := range cur.Meters {
		if l, ok := scan(name, "delivered", ""); ok {
			labels[l] = true
		}
	}
	for name := range cur.Counters {
		for _, base := range []string{"dup_drops", "reroutes", "relay_failovers"} {
			if l, ok := scan(name, base, ""); ok {
				labels[l] = true
			}
		}
	}
	for name := range cur.Hists {
		if l, ok := scan(name, "chunk_e2e", "_ns"); ok {
			labels[l] = true
		}
	}
	if len(labels) == 0 {
		return nil
	}
	out := make([]StreamHealth, 0, len(labels))
	for l := range labels {
		sh := StreamHealth{Stream: l}
		if m, ok := cur.Meters["delivered_stream_"+l]; ok {
			sh.Bytes, sh.Chunks = m.Bytes, m.Items
			if dur > 0 {
				sh.Gbps = float64(delta(prev.Meters["delivered_stream_"+l].Bytes, m.Bytes)) * 8 / 1e9 / dur
			}
		}
		if h, ok := cur.Hists["chunk_e2e_stream_"+l+"_ns"]; ok {
			// Windowed quantiles when the window saw traced chunks,
			// cumulative otherwise (a stream can go quiet between
			// scrapes without its scoreboard row blanking out).
			bars, n, _ := histDiff(prev.Hists["chunk_e2e_stream_"+l+"_ns"], h)
			if n > 0 {
				sh.E2EP50Ms = barsQuantile(bars, n, 0.50) / 1e6
				sh.E2EP99Ms = barsQuantile(bars, n, 0.99) / 1e6
			} else if h.Count > 0 {
				full, _, _ := histDiff(HistState{}, h)
				sh.E2EP50Ms = barsQuantile(full, h.Count, 0.50) / 1e6
				sh.E2EP99Ms = barsQuantile(full, h.Count, 0.99) / 1e6
			}
		}
		sh.Holes = int64(cur.Gauges["ledger_holes_stream_"+l])
		sh.Dups = cur.Counters["dup_drops_stream_"+l]
		sh.Reroutes = cur.Counters["reroutes_stream_"+l]
		sh.Failovers = cur.Counters["relay_failovers_stream_"+l]
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return streamLabelLess(out[i].Stream, out[j].Stream) })
	return out
}
