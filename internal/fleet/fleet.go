// Package fleet is the cluster-wide control tower built on top of the
// per-node snapshot-diff observer (internal/obs). Where an obs.Engine
// names the bottleneck of one process, the fleet Aggregator collects
// every node's live self-diagnosis — in-process engine feeds for
// simulated/virtual-time drills, /status JSON scrapes over HTTP for
// real runs — aligns them into ClusterWindows, and runs cross-hop
// critical-path attribution over the sender-compress → sendq →
// wire/relay-hop → gateway-recvq → decompress → sink graph, so the
// cluster verdict names the dominant node + stage ("wire-bound at
// relay1, link relay1-gateway") with per-hop evidence.
//
// On top of the aligned windows sits a declarative SLO engine
// (end-to-end p99 latency, per-stream fair-share floor, ledger-hole and
// quarantine budgets, hop-delay availability) with burn-rate evaluation
// and an ok→warn→firing alert state machine, and a regime-triggered
// profile capturer: when an alert fires or the cluster verdict enters a
// degraded regime, the owning node writes a rate-limited pprof CPU+heap
// profile to an artifact directory the cluster report links.
//
// Everything here is pull-based and off the hot path: a tick scrapes
// statuses that are themselves scrapes of registry atomics. The package
// deliberately imports only obs and metrics — the telemetry server
// imports fleet (to serve /cluster and /alerts), never the reverse.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"numastream/internal/obs"
)

// Role tags a node's place in the streaming graph; attribution walks
// roles from the sink backward.
type Role string

const (
	RoleSender  Role = "sender"
	RoleRelay   Role = "relay"
	RoleGateway Role = "gateway"
)

// Source is one node's status feed. Fetch returns the node's live
// self-diagnosis (with the per-stream scoreboard when the node has
// one); the aggregator calls it once per tick, outside its lock.
type Source struct {
	Node  string
	Role  Role
	Fetch func() (obs.Status, error)
}

// EngineSource feeds a node's in-process obs engine straight into the
// aggregator — the path simulations and single-process runs use.
func EngineSource(node string, role Role, eng *obs.Engine) Source {
	return Source{Node: node, Role: role, Fetch: func() (obs.Status, error) {
		return eng.Status(true), nil
	}}
}

// HTTPSource scrapes a remote node's /status endpoint (with the
// scoreboard) — the path real multi-process runs use. base is the
// node's telemetry address, with or without the http:// scheme.
func HTTPSource(node string, role Role, base string) Source {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 2 * time.Second}
	return Source{Node: node, Role: role, Fetch: func() (obs.Status, error) {
		resp, err := client.Get(base + "/status?streams=1")
		if err != nil {
			return obs.Status{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return obs.Status{}, fmt.Errorf("fleet: %s/status: %s", base, resp.Status)
		}
		var st obs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return obs.Status{}, fmt.Errorf("fleet: %s/status: %w", base, err)
		}
		return st, nil
	}}
}

// HopStat is one named link's cumulative state at a tick: the total
// fault-inflicted delay it has absorbed so far. The aggregator diffs
// consecutive stats into windowed delay shares — PR 6's per-link
// attribution, turned into a live per-window signal.
type HopStat struct {
	Link      string
	From, To  string
	DelaySecs float64
}

// Options configures an Aggregator.
type Options struct {
	// Fleet labels the aggregator's reports (deployment or drill name).
	Fleet string
	// Interval between automatic ticks once Start is called; <= 0 means
	// DefaultInterval. Irrelevant for ObserveAt-only use (simulations
	// tick on virtual time).
	Interval time.Duration
	// SLOs are evaluated against every cluster window's signals.
	SLOs []SLO
	// Profiler, when non-nil, captures pprof artifacts on alert firings
	// and degraded regime entries.
	Profiler *Profiler
}

// Aggregator defaults and bounds: DefaultWindowCap bounds the
// cluster-window ring, DefaultRegimeCap the cluster regime-transition log.
const (
	DefaultInterval  = time.Second
	DefaultWindowCap = 240
	DefaultRegimeCap = 256
)

// Regime is one cluster-verdict transition: at T the cluster stopped
// being From and became To, where both are culprit keys
// ("verdict@node:stage").
type Regime struct {
	T        float64  `json:"t"`
	From     string   `json:"from"`
	To       string   `json:"to"`
	Evidence []string `json:"evidence,omitempty"`
}

// Aggregator collects node statuses and hop stats, aligns them into
// ClusterWindows, attributes the cluster bottleneck, evaluates SLOs and
// drives profile capture. All methods are safe for concurrent use.
type Aggregator struct {
	opts  Options
	start time.Time

	srcMu   sync.Mutex
	sources []Source
	hops    func() []HopStat

	mu             sync.Mutex
	prevT          float64
	haveT          bool
	prevHop        map[string]float64
	windows        []ClusterWindow
	windowsDropped int64
	regimes        []Regime
	regimesDropped int64
	verdict        obs.Verdict
	culprit        string // current culprit key
	node, stage    string
	alerts         []*alertTracker

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an aggregator. Add sources with AddSource (any time — a
// node joining mid-run shows up on the next tick).
func New(opts Options) *Aggregator {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	a := &Aggregator{
		opts:    opts,
		start:   time.Now(),
		prevHop: map[string]float64{},
		verdict: obs.VerdictIdle,
		culprit: string(obs.VerdictIdle),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, s := range opts.SLOs {
		a.alerts = append(a.alerts, newAlertTracker(s))
	}
	return a
}

// AddSource registers a node feed.
func (a *Aggregator) AddSource(s Source) {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	a.sources = append(a.sources, s)
}

// SetHops installs the link-stat provider (a multi-hop deployment's
// per-link cumulative fault delays). Called once per tick.
func (a *Aggregator) SetHops(fn func() []HopStat) {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	a.hops = fn
}

// Start launches the periodic tick goroutine; Stop halts it (idempotent)
// and folds one final tick so the tail of the run is windowed.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				a.Tick()
			case <-a.stop:
				return
			}
		}
	}()
}

// Stop halts the tick goroutine and takes one final tick.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
		<-a.done
		a.Tick()
	})
}

// Tick collects every source now, stamped with wall seconds since the
// aggregator was built. Safe to call by hand.
func (a *Aggregator) Tick() *ClusterWindow {
	return a.ObserveAt(time.Since(a.start).Seconds())
}

// ObserveAt collects every source and folds one cluster observation at
// time t on the run's clock (virtual seconds when a simulation drives
// the aggregator). The first observation seeds the hop baseline and
// returns nil; every later one produces a ClusterWindow.
func (a *Aggregator) ObserveAt(t float64) *ClusterWindow {
	a.srcMu.Lock()
	sources := append([]Source(nil), a.sources...)
	hopsFn := a.hops
	a.srcMu.Unlock()

	// Fetch outside the fold lock: HTTP sources block.
	nodes := make([]NodeWindow, 0, len(sources))
	for _, src := range sources {
		nw := NodeWindow{Node: src.Node, Role: src.Role}
		st, err := src.Fetch()
		if err != nil {
			nw.Err = err.Error()
		} else {
			nw.Verdict = st.Verdict
			nw.Evidence = st.Evidence
			nw.SkewSec = t - st.T
			if st.Window != nil {
				w := *st.Window
				if len(st.Streams) > 0 {
					w.Streams = st.Streams
				}
				nw.Window = &w
			}
		}
		nodes = append(nodes, nw)
	}
	var hops []HopStat
	if hopsFn != nil {
		hops = hopsFn()
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.haveT {
		a.prevT, a.haveT = t, true
		for _, h := range hops {
			a.prevHop[h.Link] = h.DelaySecs
		}
		return nil
	}

	cw := ClusterWindow{T0: a.prevT, T1: t, Dur: t - a.prevT, Nodes: nodes}
	if cw.Dur < 0 {
		cw.Dur = 0
	}
	for _, h := range hops {
		hw := HopWindow{Link: h.Link, From: h.From, To: h.To, DelaySecs: h.DelaySecs}
		if cw.Dur > 0 {
			if d := h.DelaySecs - a.prevHop[h.Link]; d > 0 {
				hw.DelayShare = d / cw.Dur
			}
		}
		a.prevHop[h.Link] = h.DelaySecs
		cw.Hops = append(cw.Hops, hw)
	}
	a.prevT = t

	buildSignals(&cw)
	attribute(&cw)

	a.windows = append(a.windows, cw)
	if over := len(a.windows) - DefaultWindowCap; over > 0 {
		a.windows = append(a.windows[:0], a.windows[over:]...)
		a.windowsDropped += int64(over)
	}

	key := culpritKey(cw.Verdict, cw.Node, cw.Stage)
	if key != a.culprit {
		a.regimes = append(a.regimes, Regime{T: cw.T1, From: a.culprit, To: key, Evidence: cw.Evidence})
		if over := len(a.regimes) - DefaultRegimeCap; over > 0 {
			a.regimes = append(a.regimes[:0], a.regimes[over:]...)
			a.regimesDropped += int64(over)
		}
		if degradedVerdict(cw.Verdict) && !degradedVerdict(a.verdict) && a.opts.Profiler != nil {
			a.opts.Profiler.Capture("regime-" + string(cw.Verdict))
		}
		a.culprit, a.verdict, a.node, a.stage = key, cw.Verdict, cw.Node, cw.Stage
	}

	for _, tr := range a.alerts {
		if tr.observe(cw.T1, cw.Signals) && a.opts.Profiler != nil {
			a.opts.Profiler.Capture("alert-" + tr.slo.Name)
		}
	}
	return &cw
}

// degradedVerdict reports whether v is a regime worth a profile: the
// pathological states, not the normal operating points (a pipeline is
// always bound by *something*).
func degradedVerdict(v obs.Verdict) bool {
	return v == obs.VerdictChurnDegraded || v == obs.VerdictPoolStarved
}

// Windows returns a copy of the retained cluster-window ring, oldest
// first.
func (a *Aggregator) Windows() []ClusterWindow {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ClusterWindow(nil), a.windows...)
}

// Regimes returns a copy of the retained regime transitions.
func (a *Aggregator) Regimes() []Regime {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Regime(nil), a.regimes...)
}

// Alerts returns every SLO's current alert state.
func (a *Aggregator) Alerts() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.alerts))
	for _, tr := range a.alerts {
		out = append(out, tr.snapshot())
	}
	return out
}

// ClusterStatus is the live cluster view served by /cluster: the
// current verdict with its culprit node+stage, the latest aligned
// window, alert states and the regime log.
type ClusterStatus struct {
	Fleet    string         `json:"fleet,omitempty"`
	T        float64        `json:"t"`
	Verdict  obs.Verdict    `json:"verdict"`
	Node     string         `json:"node,omitempty"`
	Stage    string         `json:"stage,omitempty"`
	Evidence []string       `json:"evidence,omitempty"`
	Window   *ClusterWindow `json:"window,omitempty"`
	Alerts   []Alert        `json:"alerts,omitempty"`
	Regimes  []Regime       `json:"regimes,omitempty"`
	Windows  int            `json:"windows"`
	Dropped  int64          `json:"windows_dropped,omitempty"`
}

// Status assembles the live cluster view.
func (a *Aggregator) Status() ClusterStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ClusterStatus{
		Fleet:   a.opts.Fleet,
		Verdict: a.verdict,
		Node:    a.node,
		Stage:   a.stage,
		Windows: len(a.windows),
		Dropped: a.windowsDropped,
		Regimes: append([]Regime(nil), a.regimes...),
	}
	for _, tr := range a.alerts {
		st.Alerts = append(st.Alerts, tr.snapshot())
	}
	if n := len(a.windows); n > 0 {
		w := a.windows[n-1]
		st.T = w.T1
		st.Evidence = append([]string(nil), w.Evidence...)
		st.Window = &w
	}
	return st
}
