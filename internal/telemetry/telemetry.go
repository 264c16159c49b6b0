// Package telemetry serves a registry live over HTTP — the flight
// recorder's cockpit view. A Server exposes three endpoints on an
// opt-in address (-telemetry-addr on the binaries):
//
//	/metrics      Prometheus text exposition format, hand-rolled (no
//	              client library): per-stage byte/item counters and Gbps
//	              gauges, failure-event counters, queue-depth gauges,
//	              log-scale latency histogram buckets (nanosecond series
//	              doubled as seconds-converted series), and Go runtime
//	              health gauges.
//	/healthz      readiness: 200 "ok" while the server is up.
//	/trace        (ServeWith with a Tracer) live Chrome trace-event JSON
//	              snapshot of the run so far — load it at ui.perfetto.dev
//	              without waiting for the process to exit.
//	/status       (ServeWith with an Obs engine) the pipeline's live
//	              self-diagnosis: current bottleneck verdict with
//	              evidence, the latest window's per-stage / per-queue /
//	              pool / churn signals, and the regime log. JSON by
//	              default; ?format=text for a terminal summary,
//	              ?streams=1 to include the per-stream health
//	              scoreboard, ?log=1 for the regime log as JSONL,
//	              ?actions=1 (with an Adapt controller wired) for the
//	              adaptive placement action log.
//	/cluster      (ServeWith with a Fleet aggregator) the cluster-wide
//	              control-tower view: the fleet verdict naming the
//	              dominant node + stage, per-node windows, per-hop delay
//	              shares, SLO alert states and the cluster regime log.
//	              JSON by default; ?format=text for a terminal summary.
//	/alerts       (ServeWith with a Fleet aggregator) just the SLO alert
//	              states, as a JSON array.
//	/debug/vars   the standard expvar JSON dump (the registry is
//	              published under "numastream").
//	/debug/pprof  the standard net/http/pprof profiles.
//
// Everything reads straight from the shared metrics.Registry the
// pipeline workers are already recording into, so scraping costs a few
// atomic loads per series — no sampling thread, no extra allocation on
// the hot path.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"numastream/internal/adapt"
	"numastream/internal/fleet"
	"numastream/internal/metrics"
	"numastream/internal/obs"
	"numastream/internal/trace"
)

// Server serves telemetry for one registry until Close.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// expvarReg is the registry the process-wide "numastream" expvar reads
// from; the most recent ServeWith call owns it.
var expvarReg atomic.Pointer[metrics.Registry]

var publishOnce sync.Once

// Options is ServeWith's optional wiring.
type Options struct {
	// Tracer, when non-nil, is exposed at /trace as a live Chrome
	// trace-event JSON snapshot.
	Tracer *trace.Tracer
	// Obs, when non-nil, is exposed at /status as the live
	// self-diagnosis view (verdict, latest window, regime log,
	// per-stream scoreboard).
	Obs *obs.Engine
	// Fleet, when non-nil, is exposed at /cluster (the aggregated
	// control-tower view) and /alerts (the SLO alert states).
	Fleet *fleet.Aggregator
	// Adapt, when non-nil (and Obs is set), lets /status?actions=1
	// include the adaptive placement controller's action log.
	Adapt *adapt.Controller
}

// ServeWith starts a telemetry server for reg on addr (":0" picks a free
// port; read it back with Addr). Every served registry also gains the
// Go runtime health gauges (goroutines, heap bytes, GC pause total).
func ServeWith(addr string, reg *metrics.Registry, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	expvarReg.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("numastream", expvar.Func(func() any {
			r := expvarReg.Load()
			if r == nil {
				return nil
			}
			return map[string]any{
				"meters":     r.Snapshots(),
				"counters":   r.CounterSnapshots(),
				"gauges":     r.GaugeSnapshots(),
				"histograms": r.HistogramSnapshots(),
			}
		}))
	})

	RegisterRuntimeGauges(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	if opts.Tracer != nil {
		tr := opts.Tracer
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			tr.WriteJSON(w)
		})
	}
	if opts.Obs != nil {
		eng := opts.Obs
		ctrl := opts.Adapt
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if q.Get("log") == "1" {
				w.Header().Set("Content-Type", "application/x-ndjson")
				obs.WriteRegimesJSONL(w, eng.Regimes())
				return
			}
			st := eng.Status(q.Get("streams") == "1")
			withActions := ctrl != nil && q.Get("actions") == "1"
			if q.Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				st.WriteText(w)
				if withActions {
					actions := ctrl.Actions()
					fmt.Fprintf(w, "\nadaptive actions (%d):\n%s", len(actions), adapt.FormatActions(actions))
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if withActions {
				enc.Encode(struct {
					obs.Status
					Actions []adapt.Action `json:"actions"`
				}{st, ctrl.Actions()})
				return
			}
			enc.Encode(st)
		})
	}
	if opts.Fleet != nil {
		agg := opts.Fleet
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
			st := agg.Status()
			if r.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				st.WriteText(w)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(st)
		})
		mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(agg.Alerts())
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// sanitize maps an arbitrary registry key onto a legal Prometheus
// metric-name fragment ([a-zA-Z0-9_]).
func sanitize(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders reg in the Prometheus text exposition format
// (version 0.0.4). Meters become <name>_bytes_total / <name>_items_total
// counters plus a <name>_gbps gauge; counters become <name>_total;
// gauges map directly; histograms emit the classic _bucket{le=...} /
// _sum / _count triple with cumulative buckets. Every metric carries the
// numastream_ prefix.
//
// Histograms whose name ends in _ns (every latency series the pipeline
// records) are additionally rendered as a *_seconds histogram with le
// boundaries and sum divided by 1e9 — the Prometheus-idiomatic base
// unit, and the series dashboards quote (chunk_e2e_seconds,
// chunk_wire_seconds). The raw _ns series stays: its integer boundaries
// are what the repo's own tooling and tests key on.
func WritePrometheus(w io.Writer, reg *metrics.Registry) {
	for _, m := range reg.Snapshots() {
		n := "numastream_" + sanitize(m.Name)
		fmt.Fprintf(w, "# TYPE %s_bytes_total counter\n", n)
		fmt.Fprintf(w, "%s_bytes_total %d\n", n, m.Bytes)
		fmt.Fprintf(w, "# TYPE %s_items_total counter\n", n)
		fmt.Fprintf(w, "%s_items_total %d\n", n, m.Items)
		fmt.Fprintf(w, "# TYPE %s_gbps gauge\n", n)
		fmt.Fprintf(w, "%s_gbps %g\n", n, m.Gbps)
	}
	for _, c := range reg.CounterSnapshots() {
		n := "numastream_" + sanitize(c.Name)
		fmt.Fprintf(w, "# TYPE %s_total counter\n", n)
		fmt.Fprintf(w, "%s_total %d\n", n, c.Value)
	}
	for _, g := range reg.GaugeSnapshots() {
		n := "numastream_" + sanitize(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", n)
		fmt.Fprintf(w, "%s %g\n", n, g.Value)
	}
	for _, h := range reg.HistogramSnapshots() {
		n := "numastream_" + sanitize(h.Name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Le, b.Count)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)

		if !strings.HasSuffix(h.Name, "_ns") {
			continue
		}
		sec := "numastream_" + sanitize(strings.TrimSuffix(h.Name, "_ns")) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", sec)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", sec, float64(b.Le)/1e9, b.Count)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", sec, h.Count)
		fmt.Fprintf(w, "%s_sum %g\n", sec, float64(h.Sum)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", sec, h.Count)
	}
}
