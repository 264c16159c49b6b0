package experiments

import (
	"fmt"
	"time"

	"numastream/internal/faults"
	"numastream/internal/hw"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// Degraded-mode harnesses: the robustness counterpart of Figure 12.
// Where the figure harnesses measure throughput on a healthy path, these
// deliberately break the path mid-stream — a link outage and a capacity
// sag in the simulator, a connection reset plus a corrupted chunk on the
// real loopback pipeline — and report the dip-and-recovery curve and the
// exact failure accounting.

// DegradedBuckets is the number of time buckets in the throughput curve.
const DegradedBuckets = 24

// DegradedSimResult is one simulated degraded-mode run.
type DegradedSimResult struct {
	Schedule   faults.LinkSchedule
	BaseFinish float64   // healthy finish time (schedule derived from it)
	Finish     float64   // faulted finish time
	FaultDelay float64   // extra link service time the faults inflicted
	BucketSecs float64   // width of each throughput bucket
	Gbps       []float64 // raw-delivery throughput per bucket

	// Self-diagnosis: the run's virtual-time queue and delivery state
	// sampled into the obs snapshot-diff engine — one verdict per
	// window, regime transitions between them, and the verdict that
	// governed the most run time. The same engine real runs drive from
	// the registry, fed virtual seconds here.
	Windows  []obs.Window
	Regimes  []obs.Regime
	Dominant obs.Verdict
}

// DegradedSim runs a single updraft→lynxdtn stream twice: once healthy
// to learn the finish time, then with a link fault schedule derived from
// it — a hard outage through [30%, 40%) of the healthy run and a
// 5%-capacity sag from 60% onward (5 Gbps, well under the stream's wire
// rate, so the tail genuinely crawls). The returned curve shows
// throughput collapsing to zero, the post-outage catch-up burst as
// queued chunks drain, and the sag stretching the finish. The
// simulation is fully deterministic: the same schedule replays
// byte-for-byte.
func DegradedSim() (DegradedSimResult, error) {
	base, err := degradedCell(nil).run()
	if err != nil {
		return DegradedSimResult{}, err
	}
	t := base.FinishTime
	sched := faults.LinkSchedule{
		{Start: 0.30 * t, End: 0.40 * t, Capacity: 0},
		{Start: 0.60 * t, End: 3 * t, Capacity: 0.05},
	}
	res, err := DegradedSimWithSchedule(sched)
	if err != nil {
		return DegradedSimResult{}, err
	}
	res.BaseFinish = t
	return res, nil
}

// DegradedSimWithSchedule runs the faulted stream under an explicit link
// fault schedule. The dip-and-recovery curve is one point of cumulative
// delivered bytes per delivery on virtual time, bucketed by rateGbps —
// the same bucketing the real loopback's curve takes. The run also
// self-diagnoses: a probe pass learns the faulted finish time, then the
// measured pass samples queue blocked-time and delivery state every
// Finish/48 virtual seconds into an obs engine, yielding per-window
// verdicts and the regime log (the simulation is deterministic, so the
// probe replays exactly).
func DegradedSimWithSchedule(sched faults.LinkSchedule) (DegradedSimResult, error) {
	probe, err := degradedCell(sched).run()
	if err != nil {
		return DegradedSimResult{}, err
	}
	every := probe.FinishTime / 48

	var curve []curvePoint
	raw := int64(0)
	cell := degradedCell(sched)
	obsEng := obs.NewEngine(nil, obs.Options{Node: "degraded-sim"})
	cell.onDeliver = func(t, r, _ float64) {
		raw += int64(r)
		curve = append(curve, curvePoint{T: t, Bytes: raw})
	}
	cell.observe = func(eng *sim.Engine, st *runtime.Stream) {
		sampleEvery(eng, every, 1, delivered(st), func(t float64) {
			obsEng.Observe(st.Snapshot(t))
		})
	}
	st, err := cell.run()
	if err != nil {
		return DegradedSimResult{}, err
	}
	res := DegradedSimResult{
		Schedule:   sched,
		Finish:     st.FinishTime,
		FaultDelay: st.Path.Link().FaultDelay(),
		Windows:    obsEng.Windows(),
		Regimes:    obsEng.Regimes(),
	}
	res.Dominant = obs.BuildReport("degraded-sim", res.Windows, res.Regimes, 0).Dominant
	res.BucketSecs, res.Gbps = rateGbps(curve, DegradedBuckets)
	return res, nil
}

// degradedCell is the degraded drill's stream: 400 chunks on the Fig 12
// pair in the drill configuration, under sched.
func degradedCell(sched faults.LinkSchedule) pairCell {
	return pairCell{
		seed:   21,
		faults: sched,
		spec:   runtime.StreamSpec{Name: "degraded", Chunks: 400, ChunkBytes: ChunkBytes, Ratio: hw.CompressionRatio},
		snd:    drillSender("updraft1"),
		rcv:    drillReceiver(),
	}
}

// FormatDegradedSim renders the simulated dip-and-recovery curve.
func FormatDegradedSim(r DegradedSimResult) string {
	out := "Degraded-mode link simulation (updraft1 -> lynxdtn, 100 Gbps)\n"
	for _, w := range r.Schedule {
		kind := "degraded"
		if w.Capacity <= 0 {
			kind = "outage"
		}
		out += fmt.Sprintf("  fault: %-8s [%8.4fs, %8.4fs) capacity %3.0f%%\n",
			kind, w.Start, w.End, w.Capacity*100)
	}
	if r.BaseFinish > 0 {
		out += fmt.Sprintf("  healthy finish %.4fs, faulted finish %.4fs (+%.1f%%), fault delay %.4fs\n",
			r.BaseFinish, r.Finish, 100*(r.Finish-r.BaseFinish)/r.BaseFinish, r.FaultDelay)
	} else {
		out += fmt.Sprintf("  faulted finish %.4fs, fault delay %.4fs\n", r.Finish, r.FaultDelay)
	}
	if len(r.Windows) > 0 {
		out += fmt.Sprintf("  self-diagnosis: dominant regime %s across %d windows\n", r.Dominant, len(r.Windows))
		for _, t := range r.Regimes {
			out += fmt.Sprintf("    t=%8.4fs  %s -> %s\n", t.T, t.From, t.To)
		}
	}
	out += fmt.Sprintf("%10s %10s  throughput (raw Gbps)\n", "t (s)", "Gbps")
	max := 0.0
	for _, g := range r.Gbps {
		if g > max {
			max = g
		}
	}
	for i, g := range r.Gbps {
		bar := ""
		if max > 0 {
			bar = barOf(g / max)
		}
		out += fmt.Sprintf("%10.4f %10.2f  %s\n", float64(i)*r.BucketSecs, g, bar)
	}
	return out
}

func barOf(frac float64) string {
	n := int(frac*40 + 0.5)
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// DegradedRealResult is one real-mode fault-injected run.
type DegradedRealResult struct {
	Chunks      int
	Delivered   int
	Quarantined int64
	Redials     int64
	Resends     int64
	SeqGaps     int64
	SeqLate     int64
	Seqs        []uint64 // sequence number of every chunk the Sink saw, in delivery order
	Faults      faults.Stats
	E2EGbps     float64
	BucketSecs  float64
	Gbps        []float64 // wall-clock delivery rate per bucket (raw bytes)
}

// DegradedLoopback streams `chunks` chunks through the real loopback
// pipeline while a fault plan resets the connection mid-message and
// flips one bit of a later chunk's payload. The reset message is
// retransmitted after the automatic redial, the corrupted chunk is
// caught by its CRC and quarantined, and the run completes with exact
// accounting: delivered = chunks - 1, quarantined = 1. It records into
// reg (nil allocates a private one). Both node roles share reg — their
// meter and counter names are disjoint — so a telemetry server attached
// to reg (cmd/experiments -telemetry-addr) watches the whole degraded
// run live.
func DegradedLoopback(reg *metrics.Registry, chunks, chunkBytes int) (DegradedRealResult, error) {
	if chunks < 8 || chunkBytes < faults.CorruptMinLen {
		return DegradedRealResult{}, fmt.Errorf("experiments: degraded run needs >= 8 chunks and >= %d-byte chunks", faults.CorruptMinLen)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// A two-part msgq message costs five Write calls: part-count header,
	// header length, header payload, data length, data payload. Reset in
	// the middle of the message carrying chunk N/2 (the data-length
	// write), so the whole message is retransmitted on the redialed
	// connection; corrupt a payload write in the last quarter (Corrupt
	// defers past the small framing writes on its own).
	writesPerMsg := int64(5)
	plan := faults.Plan{
		Seed: 41,
		Faults: []faults.Fault{
			{Kind: faults.Reset, AfterWrites: writesPerMsg*int64(chunks/2) + 4},
			{Kind: faults.Corrupt, AfterWrites: writesPerMsg * int64(3*chunks/4), Bit: 11},
		},
	}
	inj := faults.NewInjector(plan)

	// The dip-and-recovery curve: the Sink records the cumulative raw
	// bytes delivered at each delivery, bucketed below like the
	// simulator's curve.
	var seqs []uint64
	var curve []curvePoint
	raw := int64(0)
	start := time.Now()
	// Single-threaded stages keep chunk order strict, so the counter
	// assertions (exactly one gap at the quarantined chunk) are
	// deterministic rather than subject to worker interleaving.
	err := loopbackPair(pipeline.SenderOptions{
		Cfg:         sender("deg-src", group(runtime.Compress, 1, runtime.OS()), group(runtime.Send, 1, runtime.OS())),
		Metrics:     reg,
		Dial:        inj.Dialer(nil),
		SendHorizon: 10 * time.Second,
	}, pipeline.ReceiverOptions{
		Cfg:     receiver("deg-gw", group(runtime.Receive, 1, runtime.OS()), group(runtime.Decompress, 1, runtime.OS())),
		Metrics: reg,
		Sink: func(c pipeline.Chunk) error {
			// One stream: serialized by its delivery lane.
			seqs = append(seqs, c.Seq)
			raw += int64(len(c.Data))
			curve = append(curve, curvePoint{T: time.Since(start).Seconds(), Bytes: raw})
			return nil
		},
	}, chunks, mixedPayload(chunkBytes))
	if err != nil {
		return DegradedRealResult{}, fmt.Errorf("degraded %w", err)
	}

	res := DegradedRealResult{
		Chunks:      chunks,
		Delivered:   len(seqs),
		Quarantined: reg.CounterValue(pipeline.CtrQuarantined),
		Redials:     reg.CounterValue(msgq.CtrRedials),
		Resends:     reg.CounterValue(msgq.CtrResends),
		SeqGaps:     reg.CounterValue(pipeline.CtrSeqGaps),
		SeqLate:     reg.CounterValue(pipeline.CtrSeqLate),
		Seqs:        seqs,
		Faults:      inj.Stats(),
	}
	for _, s := range reg.Snapshots() {
		if s.Name == "decompress" {
			res.E2EGbps = s.Gbps
		}
	}
	res.BucketSecs, res.Gbps = rateGbps(curve, DegradedBuckets)
	return res, nil
}

// FormatDegradedReal renders the real-mode fault run.
func FormatDegradedReal(r DegradedRealResult) string {
	out := "Degraded-mode real loopback (reset + corrupt mid-stream)\n"
	out += fmt.Sprintf("  chunks %d: delivered %d, quarantined %d (CRC), seq gaps %d, late %d\n",
		r.Chunks, r.Delivered, r.Quarantined, r.SeqGaps, r.SeqLate)
	out += fmt.Sprintf("  faults fired: %d reset, %d corrupt; recovery: %d redials, %d resends\n",
		r.Faults.Resets, r.Faults.Corruptions, r.Redials, r.Resends)
	out += fmt.Sprintf("  end-to-end %.2f Gbps\n", r.E2EGbps)
	max := 0.0
	for _, g := range r.Gbps {
		if g > max {
			max = g
		}
	}
	for i, g := range r.Gbps {
		bar := ""
		if max > 0 {
			bar = barOf(g / max)
		}
		out += fmt.Sprintf("%10.4f %10.2f  %s\n", float64(i)*r.BucketSecs, g, bar)
	}
	return out
}
