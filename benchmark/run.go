package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// params is one run of one workload. The last four are sized down by
// the quick-mode tests only; main always uses the defaults.
type params struct {
	workload string
	seed     int64
	seconds  float64 // timed measurement, split into numWindows windows
	traced   bool
	outDir   string

	setups      int           // set-ups timed per run, at least; setup_s is their median
	setupBudget time.Duration // set-ups repeat until this much has gone into them
	ringBufs    int           // distinct 1 MiB input buffers (a power of two)
	replayN     int           // chunks replayed through each layer in a traced run
}

const (
	defaultSetups      = 3
	defaultSetupBudget = 1500 * time.Millisecond
	defaultRingBufs    = 64
	defaultReplayN     = 512
)

// bestShare places the window a run reports: the one that a tenth of
// the windows beat. A neighbour on the shared host only ever slows a
// window down, for seconds to tens of seconds at a time, so the windows
// near the good end are the ones that measured the program; the median
// window of a run that spent most of its time slowed down did not.
const bestShare = 0.1

// measured is one metric of one run. lo and hi are the extremes over
// the timed windows (or over the set-ups, for setup_s); NaN where the
// metric is not taken per window.
type measured struct {
	name   string
	value  float64
	lo, hi float64
	note   string
}

func single(name string, v float64) measured {
	return measured{name: name, value: v, lo: math.NaN(), hi: math.NaN()}
}

// overWindows reports the q-quantile of per-window values with their range.
func overWindows(name string, vals []float64, q float64, note string) measured {
	s := slices.Clone(vals)
	slices.Sort(s)
	i := int(math.Round(q * float64(len(s)-1)))
	return measured{name: name, value: s[i], lo: s[0], hi: s[len(s)-1], note: note}
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// report is everything one run of one workload found.
type report struct {
	workload string
	traced   bool
	tally    tally
	correct  bool
	problems []string // why correct is false
	warnings []string // a workload no longer stresses what it was chosen for
	values   []measured
	verdict  string // traced: obs verdict and busiest stage over the timed windows
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload up (several times, for setup_s), runs
// the warm-up and the timed windows on the live pipeline, drains it,
// checks every delivered chunk, and in a traced run replays the first
// chunks through each layer on its own.
func runWorkload(p params, spec benchSpec) (*report, error) {
	w, err := findWorkload(p.workload)
	if err != nil {
		return nil, err
	}
	if p.ringBufs*ringBufBytes < 2*w.chunk || p.seconds <= 0 {
		return nil, fmt.Errorf("need at least two chunks of input and a positive -seconds")
	}
	rep := &report{workload: w.name, traced: p.traced, correct: true}
	epoch := time.Now()
	var rec *recorder
	if p.traced {
		rec = &recorder{}
	}
	runSpan := rec.open(0, "run", 0)

	ring := make([]byte, p.ringBufs*ringBufBytes)
	var h *harness
	var st setupTimes
	var setupSecs []float64
	for live := false; !live; {
		live = len(setupSecs)+1 >= p.setups && time.Since(epoch) >= p.setupBudget
		limit := int64(1)
		if live {
			limit = math.MaxInt64
		}
		if h, st, err = setUp(w, ring, p.seed, limit, epoch, p.traced); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupSecs)+1, err)
		}
		setupSecs = append(setupSecs, st.total().Seconds())
		if !live {
			if err := h.finish(); err != nil {
				return nil, fmt.Errorf("dry set-up %d: %w", len(setupSecs), err)
			}
			if t := h.tally(); t.failed > 0 || h.pool.Outstanding() != 0 {
				return nil, fmt.Errorf("dry set-up %d: %d chunks failed, %d buffers outstanding",
					len(setupSecs), t.failed, h.pool.Outstanding())
			}
		}
	}
	setupSpan := rec.add(runSpan, "setup", st.start, st.live)
	rec.add(setupSpan, inputSpanName(w), st.start, st.filled)
	rec.add(setupSpan, "oracle.checksum", st.filled, st.summed)
	rec.add(setupSpan, "runtime.confgen", st.summed, st.configured)
	rec.add(setupSpan, "msgq.connect", st.bound, st.live)

	snaps := h.measure(p.seconds)
	if err := h.finish(); err != nil {
		return nil, err
	}
	rep.tally = h.tally()
	if t := rep.tally; t.failed > 0 {
		rep.fail("%d of %d chunks failed: %d undelivered after %v, %d delivered twice, %d with wrong content",
			t.failed, t.attempted, t.missing, drainGrace, t.dups, t.corrupt)
	}
	if n := h.pool.Outstanding(); n != 0 {
		rep.fail("bufpool: %d buffers still leased after the drain", n)
	}

	// Per-window throughput, CPU, memory and latency.
	var good, cpu, rss []float64
	for k := 0; k < numWindows; k++ {
		a, b := snaps[k], snaps[k+1]
		secs, bytes := float64(b.t-a.t)/1e9, float64(b.bytes-a.bytes)
		good = append(good, bytes/1e6/secs)
		rss = append(rss, b.peakRSS)
		if bytes > 0 { // a window the host stalled through has no cost per byte
			cpu = append(cpu, (b.cpu-a.cpu)/(bytes/1e9))
		}
	}
	if len(cpu) == 0 {
		return nil, fmt.Errorf("nothing was delivered in %g s of timed windows", p.seconds)
	}
	p50, p95, samples := h.windowLatencies()
	latNote := fmt.Sprintf("%d samples", samples)

	// How late the open-loop generator ran. Latency is timed from the
	// due time, so lateness is inside it; a generator a whole period late
	// is no longer offering the schedule, which is worth a warning but is
	// the host's doing, not a wrong result.
	var late []int64
	for _, s := range h.streams {
		late = append(late, s.late...)
	}
	slices.Sort(late)
	latenessP99 := 0.0
	if w.ratePerSc > 0 {
		latenessP99 = quantile(late, 0.99) / 1e6
		if period := 1e3 / w.ratePerSc; latenessP99 >= period {
			rep.warnings = append(rep.warnings, fmt.Sprintf("load generator ran %.2f ms late at p99, a whole %.2f ms period: the host stalled", latenessP99, period))
		}
	}

	have := map[string]measured{}
	put := func(m measured) { have[m.name] = m }
	if !p.traced {
		// In the open loop the schedule sets the throughput, not the host.
		goodShare := 1 - bestShare
		if w.ratePerSc > 0 {
			goodShare = 0.5
		}
		put(overWindows("goodput_mbps", good, goodShare, ""))
		put(overWindows("cpu_s_per_gb", cpu, bestShare, ""))
		put(overWindows("chunk_latency_p50_ms", p50, bestShare, latNote))
		put(overWindows("chunk_latency_p95_ms", p95, bestShare, latNote))
		put(overWindows("peak_rss_mb", rss, 0.5, ""))
		put(measured{name: "setup_s", value: median(setupSecs), lo: slices.Min(setupSecs), hi: slices.Max(setupSecs),
			note: fmt.Sprintf("%d set-ups", len(setupSecs))})
	} else {
		h.mergeSpans(rec, runSpan)
		layers, err := layerMetrics(h, p, rep, rec, runSpan, snaps, st, good, latenessP99)
		if err != nil {
			return nil, err
		}
		for name, v := range layers {
			put(single(name, v))
		}
		rec.close(runSpan, h.now())
		rec.finish()
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(p.outDir, w.name+".trace.json"), w.name, p.seed); err != nil {
			return nil, err
		}
	}

	// Emit exactly the metrics BENCHMARK.json names for this mode.
	for _, m := range spec.metrics(p.traced) {
		v, ok := have[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names %q, which the harness does not measure", m.Name)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("%s on %s is %v", m.Name, w.name, v.value)
		}
		rep.values = append(rep.values, v)
		delete(have, m.Name)
	}
	for name := range have {
		return nil, fmt.Errorf("the harness measures %q, which BENCHMARK.json does not name", name)
	}
	return rep, nil
}

func inputSpanName(w workload) string {
	if w.tomo {
		return "tomo.generate"
	}
	return "input.generate"
}

// mergeSpans moves the per-chunk spans the Source and Sink callbacks
// buffered into rec, under one "window" span per traced window.
func (h *harness) mergeSpans(rec *recorder, runSpan int64) {
	ws := h.winStart.Load()
	var winSpan [numWindows]int64
	for k := 0; k < numWindows; k++ {
		if h.spansOn(k) {
			winSpan[k] = rec.add(runSpan, "window", ws+int64(k)*h.winLen, ws+int64(k+1)*h.winLen)
		}
	}
	for _, s := range h.streams {
		for _, buf := range [][]span{s.srcSpans, s.sinkSpans} {
			for _, sp := range buf {
				rec.addChunk(winSpan[sp.Parent], sp.Name, sp.Start, sp.End, sp.Stream, sp.Seq, 1)
			}
		}
	}
}
