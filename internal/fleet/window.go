package fleet

import (
	"fmt"
	"io"
	"sort"

	"numastream/internal/obs"
)

// NodeWindow is one node's contribution to a cluster window: its latest
// self-diagnosis (verdict, evidence, window) plus the clock skew
// between the node's report and the cluster tick, or the scrape error
// when the node was unreachable.
type NodeWindow struct {
	Node     string      `json:"node"`
	Role     Role        `json:"role"`
	Verdict  obs.Verdict `json:"verdict,omitempty"`
	Evidence []string    `json:"evidence,omitempty"`
	Window   *obs.Window `json:"window,omitempty"`
	SkewSec  float64     `json:"skew_sec,omitempty"`
	Err      string      `json:"err,omitempty"`
}

// HopWindow is one named link's windowed view: the cumulative
// fault-inflicted delay it has absorbed, and the share of this window's
// wall time that delay grew by — the live per-hop attribution signal.
type HopWindow struct {
	Link       string  `json:"link"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	DelaySecs  float64 `json:"delay_secs,omitempty"`
	DelayShare float64 `json:"delay_share,omitempty"` // delay-seconds accrued per wall second
}

// Signals are the cluster-level scalars each window distills for SLO
// evaluation: aggregate delivery rate, worst end-to-end tail, the
// fair-share floor across active streams, exactly-once debt, churn and
// the hottest hop.
type Signals struct {
	AggGbps          float64 `json:"agg_gbps"`
	E2EP99Ms         float64 `json:"e2e_p99_ms,omitempty"`
	FairShare        float64 `json:"fair_share"`
	Holes            int64   `json:"holes,omitempty"`
	Quarantined      int64   `json:"quarantined,omitempty"`
	Churn            int64   `json:"churn,omitempty"`
	MaxHopDelayShare float64 `json:"max_hop_delay_share,omitempty"`
}

// ClusterWindow is the aligned cluster view over [T0, T1): every node's
// latest window, every hop's windowed delay, the distilled signals, and
// the cluster verdict naming the dominant node + stage.
type ClusterWindow struct {
	T0       float64      `json:"t0"`
	T1       float64      `json:"t1"`
	Dur      float64      `json:"dur"`
	Verdict  obs.Verdict  `json:"verdict"`
	Node     string       `json:"node,omitempty"`  // culprit node (a hop's From end for wire verdicts)
	Stage    string       `json:"stage,omitempty"` // culprit stage, queue or link name
	Evidence []string     `json:"evidence,omitempty"`
	Signals  Signals      `json:"signals"`
	Nodes    []NodeWindow `json:"nodes,omitempty"`
	Hops     []HopWindow  `json:"hops,omitempty"`
}

// culpritKey renders a (verdict, node, stage) triple as the regime key
// the transition log and the report's shares are bucketed by.
func culpritKey(v obs.Verdict, node, stage string) string {
	s := string(v)
	if node != "" {
		s += "@" + node
	}
	if stage != "" {
		s += ":" + stage
	}
	return s
}

// hopDelayShareFloor: a hop counts as the bottleneck when faults grew
// its cumulative delay by at least this many seconds per wall second of
// the window.
const hopDelayShareFloor = 0.05

// buildSignals distills the cluster scalars from the gateway's
// scoreboard and every node's churn counters. Streams that moved no
// bytes in the window (finished, or not yet started) are excluded from
// the fair-share floor — a drained stream is not an unfair one.
func buildSignals(cw *ClusterWindow) {
	s := &cw.Signals
	s.FairShare = 1
	var active []float64
	for i := range cw.Nodes {
		nw := &cw.Nodes[i]
		if nw.Window == nil {
			continue
		}
		s.Churn += nw.Window.Churn.Total
		s.Quarantined += nw.Window.Churn.Quarantined
		if nw.Role != RoleGateway {
			continue
		}
		for _, row := range nw.Window.Streams {
			s.Holes += row.Holes
			if row.E2EP99Ms > s.E2EP99Ms {
				s.E2EP99Ms = row.E2EP99Ms
			}
			if row.Gbps > 0 {
				active = append(active, row.Gbps)
				s.AggGbps += row.Gbps
			}
		}
		if len(nw.Window.Streams) == 0 && cw.Dur > 0 {
			// No scoreboard (single-stream run): fall back to the node's
			// total byte rate.
			s.AggGbps += float64(nw.Window.Bytes) * 8 / 1e9 / cw.Dur
		}
	}
	if n := len(active); n > 0 {
		fair := s.AggGbps / float64(n)
		min := active[0]
		for _, g := range active[1:] {
			if g < min {
				min = g
			}
		}
		if fair > 0 {
			s.FairShare = min / fair
		}
	}
	for _, h := range cw.Hops {
		if h.DelayShare > s.MaxHopDelayShare {
			s.MaxHopDelayShare = h.DelayShare
		}
	}
}

// limiter is what a node's own classifier blamed in its latest window
// (zero when the node has no window yet).
func limiter(nw *NodeWindow) obs.Limiter {
	if nw.Window == nil {
		return obs.Limiter{}
	}
	return nw.Window.Limiter
}

// attribute fills the cluster verdict: the dominant node + stage, with
// per-hop evidence. Each node's stage label, and its rank among nodes
// that share a verdict, is what its own classifier blamed (its
// obs.Limiter), so the cluster verdict never contradicts the node's.
// Priority order walks the graph from pathology to sink to source:
//
//  1. churn-degraded — any node reporting churn events; correctness
//     work outranks steady-state tuning, exactly as in the per-node
//     classifier. Named at the node with the most events.
//  2. pool-starved — any node whose own verdict is pool starvation;
//     remote-memory cost pollutes everything downstream of it.
//  3. consumer-bound at the gateway on producer backpressure (the
//     gateway's limiter came from obs's backpressure rule, not its weak
//     deepest-queue fallback); everything upstream is a symptom.
//  4. wire-bound at a hop — the hop whose fault-inflicted delay grew
//     fastest (≥ hopDelayShareFloor s/s) names the link and its From
//     node: "the cluster is slow because relay1's uplink is saturated".
//  5. wire-bound at a sender — with no single hop to blame (a
//     healthy-but-full wire).
//  6. compress-bound at a sender.
//  7. any remaining non-idle node verdict.
//  8. idle.
//
// Rules 5–7 pick, among the nodes they consider, the one whose limiter
// share is largest.
func attribute(cw *ClusterWindow) {
	ev := func(lines ...string) { cw.Evidence = append(cw.Evidence, lines...) }
	nodeEv := func(nw *NodeWindow) {
		for _, l := range nw.Evidence {
			ev(nw.Node + ": " + l)
		}
	}

	// 1. Churn anywhere.
	var churny *NodeWindow
	for i := range cw.Nodes {
		nw := &cw.Nodes[i]
		if nw.Window == nil || nw.Window.Churn.Total == 0 {
			continue
		}
		if churny == nil || nw.Window.Churn.Total > churny.Window.Churn.Total {
			churny = nw
		}
	}
	if churny != nil {
		cw.Verdict, cw.Node = obs.VerdictChurnDegraded, churny.Node
		ev(fmt.Sprintf("%s absorbed %d churn events", churny.Node, churny.Window.Churn.Total))
		nodeEv(churny)
		return
	}

	blame := func(nw *NodeWindow) {
		cw.Verdict, cw.Node, cw.Stage = nw.Verdict, nw.Node, limiter(nw).Name
		nodeEv(nw)
	}
	// pick returns the node with the largest limiter share among those
	// keep accepts (the first on ties), or nil.
	pick := func(keep func(*NodeWindow) bool) *NodeWindow {
		var best *NodeWindow
		for i := range cw.Nodes {
			nw := &cw.Nodes[i]
			if keep(nw) && (best == nil || limiter(nw).Share > limiter(best).Share) {
				best = nw
			}
		}
		return best
	}

	// 2. Pool starvation anywhere.
	for i := range cw.Nodes {
		if nw := &cw.Nodes[i]; nw.Verdict == obs.VerdictPoolStarved {
			blame(nw)
			return
		}
	}

	// 3. The sink pushing back — only on hard backpressure evidence.
	for i := range cw.Nodes {
		nw := &cw.Nodes[i]
		if nw.Role == RoleGateway && nw.Verdict == obs.VerdictConsumerBound && limiter(nw).Rule == obs.RuleBackpressure {
			blame(nw)
			return
		}
	}

	// 4. The hop bleeding the most delay.
	var hot *HopWindow
	for i := range cw.Hops {
		h := &cw.Hops[i]
		if h.DelayShare < hopDelayShareFloor {
			continue
		}
		if hot == nil || h.DelayShare > hot.DelayShare {
			hot = h
		}
	}
	if hot != nil {
		cw.Verdict, cw.Node, cw.Stage = obs.VerdictWireBound, hot.From, hot.Link
		ev(fmt.Sprintf("hop %s (%s -> %s) absorbed %.2f delay-s/s of fault delay (%.2fs cumulative)",
			hot.Link, hot.From, hot.To, hot.DelayShare, hot.DelaySecs))
		for i := range cw.Nodes {
			nw := &cw.Nodes[i]
			if nw.Verdict == obs.VerdictWireBound {
				nodeEv(nw)
			}
		}
		return
	}

	// 5/6. Sender-side verdicts, wire before compress.
	for _, want := range []obs.Verdict{obs.VerdictWireBound, obs.VerdictCompressBound} {
		if nw := pick(func(nw *NodeWindow) bool { return nw.Verdict == want }); nw != nil {
			blame(nw)
			return
		}
	}

	// 7. Anything else non-idle (e.g. consumer-bound on a relay).
	if nw := pick(func(nw *NodeWindow) bool {
		return nw.Verdict != "" && nw.Verdict != obs.VerdictIdle && nw.Err == ""
	}); nw != nil {
		blame(nw)
		return
	}

	// 8. Idle.
	cw.Verdict = obs.VerdictIdle
	down := 0
	for i := range cw.Nodes {
		if cw.Nodes[i].Err != "" {
			down++
		}
	}
	if down > 0 {
		ev(fmt.Sprintf("every reachable node idle (%d of %d unreachable)", down, len(cw.Nodes)))
	} else {
		ev("every node idle")
	}
}

// WriteText renders the cluster status as a terminal-friendly summary.
func (s ClusterStatus) WriteText(w io.Writer) {
	if s.Fleet != "" {
		fmt.Fprintf(w, "fleet: %s\n", s.Fleet)
	}
	fmt.Fprintf(w, "t=%.2fs verdict=%s", s.T, s.Verdict)
	if s.Node != "" {
		fmt.Fprintf(w, " @ %s", s.Node)
		if s.Stage != "" {
			fmt.Fprintf(w, " (%s)", s.Stage)
		}
	}
	fmt.Fprintln(w)
	for _, ev := range s.Evidence {
		fmt.Fprintf(w, "  evidence: %s\n", ev)
	}
	if s.Window != nil {
		sig := s.Window.Signals
		fmt.Fprintf(w, "signals: agg %.2f Gbps  fair-share %.2f  e2e p99 %.2f ms  holes %d  churn %d\n",
			sig.AggGbps, sig.FairShare, sig.E2EP99Ms, sig.Holes, sig.Churn)
		for _, nw := range s.Window.Nodes {
			fmt.Fprintf(w, "  node %-10s %-8s %s", nw.Node, nw.Role, nw.Verdict)
			if nw.Err != "" {
				fmt.Fprintf(w, "  UNREACHABLE: %s", nw.Err)
			}
			fmt.Fprintln(w)
		}
		hops := append([]HopWindow(nil), s.Window.Hops...)
		sort.Slice(hops, func(i, j int) bool { return hops[i].DelayShare > hops[j].DelayShare })
		for _, h := range hops {
			if h.DelaySecs == 0 && h.DelayShare == 0 {
				continue
			}
			fmt.Fprintf(w, "  hop  %-20s delay %.2f s/s (%.2fs total)\n", h.Link, h.DelayShare, h.DelaySecs)
		}
	}
	for _, al := range s.Alerts {
		fmt.Fprintf(w, "alert %-24s %-6s value %.3f burn %.2f fired %d resolved %d\n",
			al.SLO.String(), al.State, al.Value, al.Burn, al.Fired, al.Resolved)
	}
	if len(s.Regimes) > 0 {
		fmt.Fprintln(w, "regimes:")
		for _, r := range s.Regimes {
			fmt.Fprintf(w, "  t=%.2fs %s -> %s\n", r.T, r.From, r.To)
		}
	}
}
