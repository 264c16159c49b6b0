package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"numastream/internal/obs"
)

// stubFeed is a settable Source for aggregator tests.
type stubFeed struct {
	st  obs.Status
	err error
}

func (f *stubFeed) source(node string, role Role) Source {
	return Source{Node: node, Role: role, Fetch: func() (obs.Status, error) {
		return f.st, f.err
	}}
}

func gatewayStatus(t float64, rows []obs.StreamHealth) obs.Status {
	return obs.Status{
		T:       t,
		Verdict: obs.VerdictIdle,
		Window:  &obs.Window{T0: t - 1, T1: t, Dur: 1},
		Streams: rows,
	}
}

// --- attribution -----------------------------------------------------

func nodeWith(node string, role Role, v obs.Verdict, w *obs.Window) NodeWindow {
	return NodeWindow{Node: node, Role: role, Verdict: v, Window: w}
}

// observed builds a node's one-second window the way the node builds it
// — obs.Diff over two snapshots in which a MiB was delivered and each
// named gauge grew from 0 to its value, and each stage in busy accrued
// that many worker-seconds — so it carries the verdict, limiter and
// evidence of obs's own classifier.
func observed(node string, role Role, gauges, busy map[string]float64) NodeWindow {
	prev := obs.Snapshot{T: 0, Gauges: map[string]float64{}}
	cur := obs.Snapshot{T: 1, Gauges: gauges,
		Meters: map[string]obs.MeterState{"delivered": {Bytes: 1 << 20, Items: 1}},
		Hists:  map[string]obs.HistState{},
	}
	for g := range gauges {
		prev.Gauges[g] = 0
	}
	for stage, secs := range busy {
		cur.Meters[stage] = obs.MeterState{Bytes: 1 << 20, Items: 1}
		cur.Hists[stage+"_latency_ns"] = obs.HistState{Count: 1, Sum: int64(secs * 1e9)}
	}
	w := obs.Diff(prev, cur, nil)
	return NodeWindow{Node: node, Role: role, Verdict: w.Verdict, Evidence: w.Evidence, Window: &w}
}

// blocked is the gauges of queues whose producers were blocked share
// seconds in a one-second window.
func blocked(shares map[string]float64) map[string]float64 {
	g := map[string]float64{}
	for q, share := range shares {
		g[q+"_depth"] = 1
		g[q+"_put_blocked_secs"] = share
	}
	return g
}

func TestAttributeChurnOutranksEverything(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		nodeWith("gw", RoleGateway, obs.VerdictConsumerBound, &obs.Window{
			Queues: []obs.QueueWindow{{Queue: "decq", PutBlockedShare: 0.9}},
		}),
		nodeWith("s1", RoleSender, obs.VerdictChurnDegraded, &obs.Window{
			Churn: obs.ChurnWindow{Total: 7},
		}),
	}, Hops: []HopWindow{{Link: "l1", From: "a", To: "b", DelayShare: 3}}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictChurnDegraded || cw.Node != "s1" {
		t.Fatalf("verdict = %s@%s, want churn-degraded@s1", cw.Verdict, cw.Node)
	}
}

func TestAttributePoolStarvedBeforeSink(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		observed("gw", RoleGateway, blocked(map[string]float64{"decq": 0.9}), nil),
		observed("s1", RoleSender, map[string]float64{"bufpool_hits": 10, "bufpool_misses": 20, "bufpool_steals": 10}, nil),
	}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictPoolStarved || cw.Node != "s1" || cw.Stage != "bufpool" {
		t.Fatalf("verdict = %s@%s:%s, want pool-starved@s1:bufpool", cw.Verdict, cw.Node, cw.Stage)
	}
}

func TestAttributeGatewayBackpressureNamesQueue(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		observed("gw", RoleGateway, blocked(map[string]float64{"recvq": 0.1, "decq": 0.6}), nil),
	}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictConsumerBound || cw.Node != "gw" || cw.Stage != "decq" {
		t.Fatalf("verdict = %s@%s:%s, want consumer-bound@gw:decq", cw.Verdict, cw.Node, cw.Stage)
	}
}

// TestAttributeWeakSinkVerdictLosesToHop guards the gating that makes
// the throttled-uplink drill's diagnosis come out right: a gateway
// classified consumer-bound only by its deepest-queue fallback (no
// producer actually blocked) must not outrank a hop bleeding delay.
func TestAttributeWeakSinkVerdictLosesToHop(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		observed("gw", RoleGateway, blocked(map[string]float64{"decq": 0}), nil), // no blocked time
	}, Hops: []HopWindow{{Link: "relay1-gateway", From: "relay1", To: "gateway", DelayShare: 0.8, DelaySecs: 1.2}}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictWireBound || cw.Node != "relay1" || cw.Stage != "relay1-gateway" {
		t.Fatalf("verdict = %s@%s:%s, want wire-bound@relay1:relay1-gateway", cw.Verdict, cw.Node, cw.Stage)
	}
	found := false
	for _, ev := range cw.Evidence {
		if strings.Contains(ev, "relay1-gateway") && strings.Contains(ev, "delay") {
			found = true
		}
	}
	if !found {
		t.Fatalf("hop evidence missing: %v", cw.Evidence)
	}
}

func TestAttributeHopBelowFloorFallsToSender(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		observed("s1", RoleSender, blocked(map[string]float64{"compq": 0.5}), nil),
		observed("s2", RoleSender, blocked(map[string]float64{"sendq": 0.4}), nil),
	}, Hops: []HopWindow{{Link: "l1", From: "a", To: "b", DelayShare: 0.01}}}
	attribute(&cw)
	// Wire-bound sender outranks compress-bound sender.
	if cw.Verdict != obs.VerdictWireBound || cw.Node != "s2" || cw.Stage != "sendq" {
		t.Fatalf("verdict = %s@%s:%s, want wire-bound@s2:sendq", cw.Verdict, cw.Node, cw.Stage)
	}
}

func TestAttributeBusiestSenderWins(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		observed("s1", RoleSender, nil, map[string]float64{"compress": 2}),
		observed("s2", RoleSender, nil, map[string]float64{"compress": 6}),
	}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictCompressBound || cw.Node != "s2" || cw.Stage != "compress" {
		t.Fatalf("verdict = %s@%s:%s, want the busier sender compress-bound@s2:compress", cw.Verdict, cw.Node, cw.Stage)
	}
}

// TestAttributeGatewayNamesObsLimiter: the cluster names the queue the
// gateway's own classifier blamed. recvq's producers are blocked past
// the floor and decq's are not, so obs blames recvq — and so must the
// cluster, not the most-downstream queue with any blocked time.
func TestAttributeGatewayNamesObsLimiter(t *testing.T) {
	gw := observed("gw", RoleGateway, blocked(map[string]float64{"recvq": 0.5, "decq": 0.1}), nil)
	if len(gw.Evidence) != 1 || !strings.Contains(gw.Evidence[0], "recvq producers blocked 0.50 s/s") {
		t.Fatalf("gateway evidence = %v, want recvq blamed", gw.Evidence)
	}
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{gw}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictConsumerBound || cw.Node != "gw" || cw.Stage != "recvq" {
		t.Fatalf("verdict = %s@%s:%s, want consumer-bound@gw:recvq", cw.Verdict, cw.Node, cw.Stage)
	}
}

func TestAttributeIdleCountsUnreachable(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{
		{Node: "s1", Role: RoleSender, Err: "connection refused"},
		nodeWith("gw", RoleGateway, obs.VerdictIdle, &obs.Window{}),
	}}
	attribute(&cw)
	if cw.Verdict != obs.VerdictIdle {
		t.Fatalf("verdict = %s, want idle", cw.Verdict)
	}
	if len(cw.Evidence) == 0 || !strings.Contains(cw.Evidence[0], "1 of 2 unreachable") {
		t.Fatalf("evidence = %v, want unreachable count", cw.Evidence)
	}
}

// --- signals ---------------------------------------------------------

func TestBuildSignalsFairShareAndTail(t *testing.T) {
	gw := gatewayStatus(2, nil)
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{{
		Node: "gw", Role: RoleGateway,
		Window: &obs.Window{Streams: []obs.StreamHealth{
			{Stream: "0", Gbps: 10, E2EP99Ms: 40, Holes: 2},
			{Stream: "1", Gbps: 30, E2EP99Ms: 90},
			{Stream: "2", Gbps: 0}, // drained: excluded from the floor
		}},
	}}, Hops: []HopWindow{{Link: "l1", DelayShare: 0.3}, {Link: "l2", DelayShare: 0.1}}}
	_ = gw
	buildSignals(&cw)
	s := cw.Signals
	if s.AggGbps != 40 {
		t.Fatalf("AggGbps = %g, want 40", s.AggGbps)
	}
	// fair = 40/2 = 20; min = 10; share = 0.5
	if s.FairShare != 0.5 {
		t.Fatalf("FairShare = %g, want 0.5", s.FairShare)
	}
	if s.E2EP99Ms != 90 || s.Holes != 2 {
		t.Fatalf("tail/holes = %g/%d, want 90/2", s.E2EP99Ms, s.Holes)
	}
	if s.MaxHopDelayShare != 0.3 {
		t.Fatalf("MaxHopDelayShare = %g, want 0.3", s.MaxHopDelayShare)
	}
}

func TestBuildSignalsNoActiveStreamsDefaultsFair(t *testing.T) {
	cw := ClusterWindow{Dur: 1, Nodes: []NodeWindow{{
		Node: "gw", Role: RoleGateway,
		Window: &obs.Window{Streams: []obs.StreamHealth{{Stream: "0", Gbps: 0}}},
	}}}
	buildSignals(&cw)
	if cw.Signals.FairShare != 1 {
		t.Fatalf("FairShare = %g with no active streams, want 1", cw.Signals.FairShare)
	}
}

// --- aggregator ------------------------------------------------------

func TestAggregatorObserveAt(t *testing.T) {
	feed := &stubFeed{st: gatewayStatus(0, []obs.StreamHealth{{Stream: "0", Gbps: 50}, {Stream: "1", Gbps: 50}})}
	a := New(Options{
		Fleet: "unit",
		SLOs: []SLO{{
			Metric: "fair_share", Op: ">=", Threshold: 0.5,
			BurnWindow: 2, FireBurn: 0.5, ClearWindows: 2,
		}},
	})
	a.AddSource(feed.source("gw", RoleGateway))
	delay := 0.0
	a.SetHops(func() []HopStat {
		return []HopStat{{Link: "relay1-gateway", From: "relay1", To: "gateway", DelaySecs: delay}}
	})

	if w := a.ObserveAt(0); w != nil {
		t.Fatalf("first observation returned a window: %+v", w)
	}

	// Healthy window: balanced streams, no hop delay.
	feed.st = gatewayStatus(1, []obs.StreamHealth{{Stream: "0", Gbps: 50}, {Stream: "1", Gbps: 50}})
	w := a.ObserveAt(1)
	if w == nil || w.Signals.FairShare != 1 {
		t.Fatalf("healthy window = %+v, want fair share 1", w)
	}

	// Injured window: hop bleeding delay, stream 0 starved.
	delay = 0.8
	feed.st = gatewayStatus(2, []obs.StreamHealth{{Stream: "0", Gbps: 4}, {Stream: "1", Gbps: 60}})
	w = a.ObserveAt(2)
	if w == nil {
		t.Fatal("no window")
	}
	if w.Signals.MaxHopDelayShare != 0.8 {
		t.Fatalf("MaxHopDelayShare = %g, want 0.8 (delta over 1s)", w.Signals.MaxHopDelayShare)
	}
	if w.Verdict != obs.VerdictWireBound || w.Node != "relay1" || w.Stage != "relay1-gateway" {
		t.Fatalf("verdict = %s@%s:%s, want wire-bound@relay1:relay1-gateway", w.Verdict, w.Node, w.Stage)
	}
	if a.verdict != obs.VerdictWireBound {
		t.Fatalf("cluster verdict = %s, want wire-bound", a.verdict)
	}

	// Second injured window fires the fair-share floor (burn 2/2 >= 0.5
	// needs two breaches with BurnWindow 2... one breach = 0.5 fires at
	// the first, so it is already firing).
	delay = 0.8 // no growth: share 0 this window
	feed.st = gatewayStatus(3, []obs.StreamHealth{{Stream: "0", Gbps: 4}, {Stream: "1", Gbps: 60}})
	a.ObserveAt(3)
	alerts := a.Alerts()
	if len(alerts) != 1 || alerts[0].State != AlertFiring {
		t.Fatalf("alerts = %+v, want the fair-share floor firing", alerts)
	}

	// Regime log saw the healthy->wire-bound transition.
	found := false
	for _, r := range a.Regimes() {
		if strings.Contains(r.To, "wire-bound@relay1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("regimes = %+v, want a transition to wire-bound@relay1", a.Regimes())
	}

	// Ring cap: windows up to obs.DefaultWindowCap+2 overflow it by two.
	for at := 4.0; at <= obs.DefaultWindowCap+2; at++ {
		feed.st = gatewayStatus(at, nil)
		a.ObserveAt(at)
	}
	if n := len(a.Windows()); n != obs.DefaultWindowCap {
		t.Fatalf("retained windows = %d, want cap %d", n, obs.DefaultWindowCap)
	}
	st := a.Status()
	if st.Dropped != 2 {
		t.Fatalf("Status.Dropped = %d, want 2", st.Dropped)
	}
	if st.Fleet != "unit" || st.Window == nil {
		t.Fatalf("Status = %+v, want fleet name and latest window", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("status does not marshal: %v", err)
	}
	var sb strings.Builder
	st.WriteText(&sb)
	if !strings.Contains(sb.String(), "fleet: unit") {
		t.Fatalf("WriteText output missing fleet name:\n%s", sb.String())
	}
}

func TestAggregatorUnreachableNode(t *testing.T) {
	feed := &stubFeed{err: fmt.Errorf("dial tcp: connection refused")}
	a := New(Options{})
	a.AddSource(feed.source("gw", RoleGateway))
	a.ObserveAt(0)
	w := a.ObserveAt(1)
	if w == nil || len(w.Nodes) != 1 || w.Nodes[0].Err == "" {
		t.Fatalf("window = %+v, want the node marked unreachable", w)
	}
	if w.Verdict != obs.VerdictIdle {
		t.Fatalf("verdict = %s, want idle (nothing reachable)", w.Verdict)
	}
}

// --- HTTP scrape path ------------------------------------------------

func TestHTTPSourceScrapesStatus(t *testing.T) {
	gw := observed("gw", RoleGateway, blocked(map[string]float64{"recvq": 0.5, "decq": 0.1}), nil)
	want := obs.Status{
		Node:    "gw",
		T:       12.5,
		Verdict: gw.Verdict,
		Window:  gw.Window,
		Streams: []obs.StreamHealth{{Stream: "0", Gbps: 42}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" || r.URL.Query().Get("streams") != "1" {
			http.NotFound(rw, r)
			return
		}
		json.NewEncoder(rw).Encode(want)
	}))
	defer srv.Close()

	// Scheme-less base gets http:// prepended.
	src := HTTPSource("gw", RoleGateway, strings.TrimPrefix(srv.URL, "http://"))
	got, err := src.Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got.Verdict != want.Verdict || got.T != want.T || len(got.Streams) != 1 || got.Streams[0].Gbps != 42 {
		t.Fatalf("scraped status = %+v, want %+v", got, want)
	}
	if got.Window == nil || got.Window.Limiter != want.Window.Limiter {
		t.Fatalf("scraped window = %+v, want limiter %+v", got.Window, want.Window.Limiter)
	}

	// And it aggregates end to end.
	a := New(Options{})
	a.AddSource(src)
	a.ObserveAt(12.5)
	w := a.ObserveAt(13.5)
	if w == nil || len(w.Nodes) != 1 || w.Nodes[0].Err != "" {
		t.Fatalf("window over HTTP = %+v", w)
	}
	if w.Nodes[0].Window == nil || len(w.Nodes[0].Window.Streams) != 1 {
		t.Fatalf("scoreboard did not survive the scrape: %+v", w.Nodes[0])
	}
	if w.Verdict != obs.VerdictConsumerBound || w.Node != "gw" || w.Stage != "recvq" {
		t.Fatalf("cluster over HTTP = %s@%s:%s, want consumer-bound@gw:recvq", w.Verdict, w.Node, w.Stage)
	}
}

func TestHTTPSourceErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := HTTPSource("gw", RoleGateway, srv.URL).Fetch(); err == nil {
		t.Fatal("non-200 scrape did not error")
	}
	if _, err := HTTPSource("gw", RoleGateway, "127.0.0.1:1").Fetch(); err == nil {
		t.Fatal("unreachable scrape did not error")
	}
}
