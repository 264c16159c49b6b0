package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"numastream/internal/metrics"
)

// Options configures an Engine.
type Options struct {
	// Interval between automatic snapshots once Start is called.
	// <= 0 means DefaultInterval. Irrelevant for Observe-only use
	// (simulations feed snapshots by hand).
	Interval time.Duration
	// Workers maps stage name → configured worker count, enabling
	// per-stage utilization. Optional.
	Workers map[string]int
	// Node labels this engine's reports (hostname, role, drill name).
	Node string
	// OnWindow, when non-nil, is called with every completed window
	// after it is folded into the ring — the adaptive placement
	// controller's subscription point. It runs on the observing
	// goroutine, outside the engine's lock, so the callback may call
	// back into the engine (e.g. SetWorkers after resizing a pool).
	OnWindow func(Window)
}

// Engine defaults (the history bounds are DefaultWindowCap and
// DefaultRegimeCap). DefaultScoreboardMax bounds the per-stream health
// rows retained in each window (Window.LimitStreams): at gateway scale
// the full scoreboard is the status payload's bulk, and the cap keeps
// every unhealthy stream and the slowest healthy ones, with the rest
// counted in StreamsOmitted.
const (
	DefaultInterval      = 500 * time.Millisecond
	DefaultScoreboardMax = 64
)

// Registry counters the engine maintains about itself: windows and
// regime transitions dropped off the bounded rings. Exposed on /metrics
// (numastream_obs_window_drops_total / numastream_obs_regime_drops_total)
// so a starved engine — scraped slower than it ticks — is visible from
// outside the process, not only in its own report.
const (
	CtrWindowDrops = "obs_window_drops"
	CtrRegimeDrops = "obs_regime_drops"
)

// Engine is the snapshot-diff observer: it captures a registry
// periodically (or accepts snapshots by hand via Observe), turns
// consecutive pairs into Windows, and tracks the verdict regime. All
// methods are safe for concurrent use; none touch the pipeline's hot
// path — a capture is a scrape of the registry's atomics.
type Engine struct {
	reg   *metrics.Registry
	opts  Options
	start time.Time

	mu       sync.Mutex
	prev     Snapshot
	havePrev bool
	windows  Ring[Window]
	regimes  Ring[Regime]
	verdict  Verdict

	loop Loop
}

// NewEngine builds an engine over reg. reg may be nil for Observe-only
// use, where the caller synthesizes snapshots (the simulation path).
func NewEngine(reg *metrics.Registry, opts Options) *Engine {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	return &Engine{
		reg:     reg,
		opts:    opts,
		start:   time.Now(),
		verdict: VerdictIdle,
	}
}

// Start launches the periodic capture goroutine.
func (e *Engine) Start() { e.loop.Start(e.opts.Interval, func() { e.Tick() }) }

// Stop halts the capture goroutine (idempotent) and takes one final
// snapshot so the tail of the run is windowed.
func (e *Engine) Stop() { e.loop.Stop(func() { e.Tick() }) }

// Tick captures the registry now, stamped with wall seconds since the
// engine was built, and observes it. Safe to call by hand between (or
// instead of) ticker firings.
func (e *Engine) Tick() *Window {
	return e.Observe(Capture(e.reg, time.Since(e.start).Seconds()))
}

// Observe folds one snapshot in. The first snapshot seeds the diff base
// and returns nil; every later one produces a Window (also returned),
// appends it to the ring, and logs a regime transition if the verdict
// changed. Snapshots must arrive in clock order.
func (e *Engine) Observe(s Snapshot) *Window {
	w := e.observe(s)
	if w != nil && e.opts.OnWindow != nil {
		e.opts.OnWindow(*w)
	}
	return w
}

func (e *Engine) observe(s Snapshot) *Window {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.havePrev {
		e.prev, e.havePrev = s, true
		return nil
	}
	w := Diff(e.prev, s, e.opts.Workers)
	w.LimitStreams(DefaultScoreboardMax)
	e.prev = s
	e.count(CtrWindowDrops, e.windows.Add(w, DefaultWindowCap))
	if w.Verdict != e.verdict {
		r := Regime{T: w.T1, From: string(e.verdict), To: string(w.Verdict), Evidence: w.Evidence}
		e.count(CtrRegimeDrops, e.regimes.Add(r, DefaultRegimeCap))
		e.verdict = w.Verdict
	}
	return &w
}

// count adds n to one of the engine's own registry counters.
func (e *Engine) count(name string, n int64) {
	if n > 0 && e.reg != nil {
		e.reg.Counter(name).Add(n)
	}
}

// SetWorkers updates one stage's configured worker count — the
// utilization denominator Diff divides busy-seconds by. The adaptive
// controller calls it after growing or shrinking a pool so later
// windows report utilization against the new size. Copy-on-write: the
// map handed to Options is never mutated.
func (e *Engine) SetWorkers(stage string, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[string]int, len(e.opts.Workers)+1)
	for k, v := range e.opts.Workers {
		m[k] = v
	}
	m[stage] = n
	e.opts.Workers = m
}

// Windows returns a copy of the retained window ring, oldest first.
func (e *Engine) Windows() []Window {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Window(nil), e.windows.Items...)
}

// Regimes returns a copy of the retained regime transitions, oldest
// first.
func (e *Engine) Regimes() []Regime {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Regime(nil), e.regimes.Items...)
}

// Status is the live self-diagnosis served by /status: the current
// verdict with its evidence, the latest window's signals, and the
// regime history. Streams is populated only on request (it is the
// scoreboard's bulk).
type Status struct {
	Node     string         `json:"node,omitempty"`
	T        float64        `json:"t"`
	Verdict  Verdict        `json:"verdict"`
	Evidence []string       `json:"evidence,omitempty"`
	Window   *Window        `json:"window,omitempty"`
	Regimes  []Regime       `json:"regimes,omitempty"`
	Windows  int            `json:"windows"`
	Dropped  int64          `json:"windows_dropped,omitempty"`
	Streams  []StreamHealth `json:"streams,omitempty"`
}

// Status assembles the live view. withStreams includes the per-stream
// health scoreboard from the latest window.
func (e *Engine) Status(withStreams bool) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Node:    e.opts.Node,
		Verdict: e.verdict,
		Windows: len(e.windows.Items),
		Dropped: e.windows.Dropped,
		Regimes: append([]Regime(nil), e.regimes.Items...),
	}
	if n := len(e.windows.Items); n > 0 {
		w := e.windows.Items[n-1]
		st.T = w.T1
		st.Evidence = append([]string(nil), w.Evidence...)
		if withStreams {
			st.Streams = append([]StreamHealth(nil), w.Streams...)
		}
		w.Streams = nil // scoreboard rides the top-level field
		st.Window = &w
	} else if e.havePrev {
		st.T = e.prev.T
	}
	return st
}

// WriteText renders the status as a terminal-friendly summary.
func (s Status) WriteText(w io.Writer) {
	if s.Node != "" {
		fmt.Fprintf(w, "node: %s\n", s.Node)
	}
	fmt.Fprintf(w, "t=%.2fs verdict=%s\n", s.T, s.Verdict)
	for _, ev := range s.Evidence {
		fmt.Fprintf(w, "  evidence: %s\n", ev)
	}
	if s.Window != nil {
		fmt.Fprintf(w, "window [%.2fs, %.2fs): %d bytes\n", s.Window.T0, s.Window.T1, s.Window.Bytes)
		for _, st := range s.Window.Stages {
			fmt.Fprintf(w, "  stage %-10s %7.2f Gbps  busy %.2f", st.Stage, st.Gbps, st.Busy)
			if st.Util > 0 {
				fmt.Fprintf(w, " (util %.0f%%)", st.Util*100)
			}
			if st.LatP99Ms > 0 {
				fmt.Fprintf(w, "  p50/p99 %.2f/%.2f ms", st.LatP50Ms, st.LatP99Ms)
			}
			fmt.Fprintln(w)
		}
		for _, q := range s.Window.Queues {
			fmt.Fprintf(w, "  queue %-10s depth %4.0f  put-blocked %.2f s/s  get-blocked %.2f s/s\n",
				q.Queue, q.Depth, q.PutBlockedShare, q.GetBlockedShare)
		}
		if s.Window.Pool.Gets > 0 {
			fmt.Fprintf(w, "  pool  gets %d  miss %.0f%%  steal %.0f%%\n",
				s.Window.Pool.Gets, s.Window.Pool.MissShare*100, s.Window.Pool.StealShare*100)
		}
		if s.Window.Churn.Total > 0 {
			fmt.Fprintf(w, "  churn %d events\n", s.Window.Churn.Total)
		}
	}
	for _, sh := range s.Streams {
		fmt.Fprintf(w, "stream %-6s %7.2f Gbps  chunks %d", sh.Stream, sh.Gbps, sh.Chunks)
		if sh.E2EP99Ms > 0 {
			fmt.Fprintf(w, "  e2e p50/p99 %.2f/%.2f ms", sh.E2EP50Ms, sh.E2EP99Ms)
		}
		if sh.Holes > 0 || sh.Dups > 0 || sh.Reroutes > 0 || sh.Failovers > 0 {
			fmt.Fprintf(w, "  holes %d dups %d reroutes %d failovers %d",
				sh.Holes, sh.Dups, sh.Reroutes, sh.Failovers)
		}
		fmt.Fprintln(w)
	}
	if s.Window != nil && s.Window.StreamsOmitted > 0 {
		fmt.Fprintf(w, "  (+%d healthy streams past the scoreboard cap)\n", s.Window.StreamsOmitted)
	}
	if len(s.Regimes) > 0 {
		fmt.Fprintln(w, "regimes:")
		for _, r := range s.Regimes {
			fmt.Fprintf(w, "  t=%.2fs %s -> %s\n", r.T, r.From, r.To)
		}
	}
}

// WriteRegimesJSONL renders regime transitions one JSON object per
// line — the bounded event-log format tools can tail.
func WriteRegimesJSONL(w io.Writer, regimes []Regime) error {
	enc := json.NewEncoder(w)
	for _, r := range regimes {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
