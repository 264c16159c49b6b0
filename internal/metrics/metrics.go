// Package metrics provides lightweight counters for the real-execution
// mode of the runtime: byte/chunk throughput meters, event counters,
// gauges and log-scale latency histograms. Nothing here reads a registry
// on a clock: internal/obs scrapes it into windows, and internal/telemetry
// serves it on /metrics. (The simulator side gets its metrics from
// hw.CoreStats; this package is for goroutine pipelines where wall-clock
// time rules.)
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Meter counts bytes and items and derives rates over wall-clock time.
// The rate window opens lazily at the first recorded byte — not at
// construction — so a meter created early (registry first-use, worker
// warm-up, a receiver waiting for its peer to dial) does not dilute the
// rate with idle preamble. All methods are safe for concurrent use.
type Meter struct {
	startNanos atomic.Int64 // unix nanos of the first Add; 0 = untouched
	bytes      atomic.Int64
	items      atomic.Int64
}

// NewMeter returns a meter. Its clock starts at the first recorded byte.
func NewMeter() *Meter {
	return &Meter{}
}

// touch opens the rate window if this is the first recorded value.
func (m *Meter) touch() {
	if m.startNanos.Load() == 0 {
		m.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Add records n bytes of one item.
func (m *Meter) Add(n int) {
	m.touch()
	m.bytes.Add(int64(n))
	m.items.Add(1)
}

// Bytes returns the total recorded bytes.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// Items returns the total recorded items.
func (m *Meter) Items() int64 { return m.items.Load() }

// Elapsed returns time since the first recorded byte, zero if nothing
// was recorded yet.
func (m *Meter) Elapsed() time.Duration {
	s := m.startNanos.Load()
	if s == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - s)
}

// Rate returns bytes/second over the window since the first recorded
// byte.
func (m *Meter) Rate() float64 {
	el := m.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.bytes.Load()) / el
}

// Gbps returns the rate in gigabits per second.
func (m *Meter) Gbps() float64 { return m.Rate() * 8 / 1e9 }

// Snapshot is a point-in-time view of a meter.
type Snapshot struct {
	Name    string
	Bytes   int64
	Items   int64
	Seconds float64
	Gbps    float64
}

// Counter is a named atomic event counter. Where a Meter measures the
// happy path (bytes, items, rates), a Counter accounts for discrete
// failure events: reconnects, retransmitted sends, quarantined chunks,
// sequence gaps, timeouts.
type Counter struct {
	v atomic.Int64
}

// Inc adds one event.
func (c *Counter) Inc() { c.v.Add(1) }

// Add records n events at once (e.g. a sequence gap of n chunks).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSnapshot is a point-in-time view of one counter.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Gauge is a named instantaneous value — a queue depth, a live-peer
// count, a high-water mark. Unlike a Counter it can move both ways.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeSnapshot is a point-in-time view of one gauge.
type GaugeSnapshot struct {
	Name  string
	Value float64
	// Gen counts the callbacks registered under Name (0 for a set-style
	// gauge). A change between two snapshots means the callback was
	// replaced, and the new one may read a different object.
	Gen int
}

// CtrDupRegister counts duplicate metric registrations: the same name
// claimed as two different metric kinds (a counter shadowing a gauge, a
// meter shadowing a histogram, ...). Re-requesting a name under its
// original kind is the normal create-on-first-use path and never counts;
// a cross-kind claim is always a naming bug. Under `go test` the claim
// panics instead, so the bug is caught at the offending call site; in
// production the first registration wins and this counter records that
// the shadowing attempt happened.
const CtrDupRegister = "metrics_dup_register"

// dupPanics selects the duplicate-registration response: panic when the
// process is a test binary (catch the bug at its source), count
// otherwise (never crash a production stream over a metric name).
var dupPanics = testing.Testing()

// metricKind discriminates the registry's five namespaces for duplicate
// detection.
type metricKind uint8

const (
	kindMeter metricKind = iota
	kindCounter
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindMeter:
		return "meter"
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "callback gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry groups named meters, counters, gauges and histograms for a
// pipeline run.
type Registry struct {
	mu         sync.Mutex
	meters     map[string]*Meter
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]gaugeFunc
	hists      map[string]*Histogram

	kinds  map[string]metricKind
	dupCtr *Counter

	// Per-stream cardinality cap (see streams.go).
	streamCap int
	streamIDs map[uint32]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		meters:     make(map[string]*Meter),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]gaugeFunc),
		hists:      make(map[string]*Histogram),
		kinds:      make(map[string]metricKind),
		streamIDs:  make(map[uint32]struct{}),
	}
	r.dupCtr = &Counter{}
	r.counters[CtrDupRegister] = r.dupCtr
	r.kinds[CtrDupRegister] = kindCounter
	return r
}

// claimLocked records that name belongs to kind. A re-claim under the
// same kind is the ordinary lookup path and is free; a claim under a
// different kind is a duplicate registration — the name would silently
// shadow an existing series of another type — and panics under tests or
// increments CtrDupRegister in production. It reports whether the claim
// holds (false = the caller must not shadow the existing series).
func (r *Registry) claimLocked(name string, kind metricKind) bool {
	have, ok := r.kinds[name]
	if !ok {
		r.kinds[name] = kind
		return true
	}
	if have == kind {
		return true
	}
	if dupPanics {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, re-registered as a %s", name, have, kind))
	}
	r.dupCtr.Inc()
	return false
}

func (r *Registry) meterLocked(name string) *Meter {
	m, ok := r.meters[name]
	if !ok {
		if !r.claimLocked(name, kindMeter) {
			return NewMeter() // orphaned: the colliding series keeps the name
		}
		m = NewMeter()
		r.meters[name] = m
	}
	return m
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		if !r.claimLocked(name, kindCounter) {
			return &Counter{}
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) histogramLocked(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		if !r.claimLocked(name, kindHistogram) {
			return NewHistogram()
		}
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Meter returns the named meter, creating it on first use.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meterLocked(name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		if !r.claimLocked(name, kindGauge) {
			return &Gauge{}
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterGauge installs a callback gauge: fn is polled at snapshot and
// sample time. Queue depths use this so the registry always reflects the
// live value without anyone pushing updates. Re-registering a name
// replaces the callback (a fresh pipeline run over a reused registry);
// claiming a name that already belongs to another metric kind is a
// duplicate registration (panic under tests, CtrDupRegister otherwise)
// and leaves the existing series untouched.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.claimLocked(name, kindGaugeFunc) {
		return
	}
	r.gaugeFuncs[name] = gaugeFunc{fn: fn, gen: r.gaugeFuncs[name].gen + 1}
}

// gaugeFunc is a callback gauge and the count of callbacks registered
// under its name so far.
type gaugeFunc struct {
	fn  func() float64
	gen int
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name)
}

// CounterValue returns the named counter's value, zero if it was never
// created — so callers can assert on counters a run may not have touched.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// CounterSnapshots returns all counters sorted by name.
func (r *Registry) CounterSnapshots() []CounterSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, CounterSnapshot{Name: name, Value: c.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GaugeSnapshots returns all gauges — set-style and callback — sorted by
// name. Callback gauges are polled outside the registry lock so a
// callback that takes another lock (queue stats) cannot deadlock with a
// concurrent registry call.
func (r *Registry) GaugeSnapshots() []GaugeSnapshot {
	r.mu.Lock()
	out := make([]GaugeSnapshot, 0, len(r.gauges)+len(r.gaugeFuncs))
	for name, g := range r.gauges {
		out = append(out, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	funcs := make([]GaugeSnapshot, 0, len(r.gaugeFuncs))
	fns := make([]func() float64, 0, len(r.gaugeFuncs))
	for name, gf := range r.gaugeFuncs {
		funcs = append(funcs, GaugeSnapshot{Name: name, Gen: gf.gen})
		fns = append(fns, gf.fn)
	}
	r.mu.Unlock()
	for i, fn := range fns {
		funcs[i].Value = fn()
	}
	out = append(out, funcs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistogramSnapshots returns all histograms' snapshots sorted by name.
func (r *Registry) HistogramSnapshots() []HistogramSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	hists := make([]*Histogram, 0, len(r.hists))
	for name, h := range r.hists {
		names = append(names, name)
		hists = append(hists, h)
	}
	r.mu.Unlock()
	out := make([]HistogramSnapshot, 0, len(hists))
	for i, h := range hists {
		out = append(out, h.Snapshot(names[i]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshots returns all meters' snapshots sorted by name.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.meters))
	for name, m := range r.meters {
		out = append(out, Snapshot{
			Name:    name,
			Bytes:   m.Bytes(),
			Items:   m.Items(),
			Seconds: m.Elapsed().Seconds(),
			Gbps:    m.Gbps(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the registry as a small table: meters first, then any
// nonzero failure counters, nonzero gauges and populated histograms.
func (r *Registry) String() string {
	out := ""
	for _, s := range r.Snapshots() {
		out += fmt.Sprintf("%-16s %12d bytes %8d items %8.2f Gbps\n",
			s.Name, s.Bytes, s.Items, s.Gbps)
	}
	for _, c := range r.CounterSnapshots() {
		if c.Value == 0 {
			continue
		}
		out += fmt.Sprintf("%-16s %12d events\n", c.Name, c.Value)
	}
	for _, g := range r.GaugeSnapshots() {
		if g.Value == 0 {
			continue
		}
		out += fmt.Sprintf("%-16s %12.2f\n", g.Name, g.Value)
	}
	for _, h := range r.HistogramSnapshots() {
		if h.Count == 0 {
			continue
		}
		out += fmt.Sprintf("%-24s %8d obs  p50 %s  p99 %s\n",
			h.Name, h.Count, fmtNanos(h.P50), fmtNanos(h.P99))
	}
	return out
}

// fmtNanos renders a nanosecond quantile human-readably.
func fmtNanos(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
