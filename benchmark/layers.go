package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"

	"numastream"
	"numastream/internal/bufpool"
	"numastream/internal/experiments"
	"numastream/internal/lz4"
	"numastream/internal/msgq"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/queue"
)

// The simulator's paper-fidelity numbers (EXPERIMENTS.md: Fig. 12 best
// tuned config F over baseline A at 8 thread pairs, Fig. 14 runtime over
// OS placement). They are exact and deterministic; a traced run fails
// when they move, because no streaming change should move them.
const (
	pinnedFig12Speedup = 3.0
	pinnedFig14Speedup = 1.3870269652169784
	pinTolerance       = 1e-9
)

// pipelineHeaderLen is the size of the chunk header the pipeline sends
// as the first message part; the replay frames its messages the same.
const pipelineHeaderLen = 21

// crcTable is the pipeline's payload checksum polynomial (CRC-32C).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// layerMetrics assembles the per-layer numbers of a traced run: the
// in-situ ones from counters the program exports (read at the first and
// last window boundary), and the per-call ones from the replay phase.
func layerMetrics(h *harness, p params, rep *report, rec *recorder, runSpan int64,
	snaps []snapshot, st setupTimes, goodput []float64, latenessP99 float64) (map[string]float64, error) {
	w := h.w
	first, last := snaps[0], snaps[numWindows]
	secs := float64(last.t-first.t) / 1e9
	chunks := float64(last.chunks - first.chunks)
	runCPU := last.cpu - first.cpu
	m := map[string]float64{}

	// One obs window per registry over the whole timed period. Registry 0
	// sees the receiver and sender 0, so its verdict covers all four
	// stages; further senders add their compress and send busy time.
	var wins []obs.Window
	for i := range h.regs {
		wins = append(wins, obs.Diff(first.obs[i], last.obs[i], nil))
	}
	busy := func(stage string) (b float64) {
		for _, win := range wins {
			for _, s := range win.Stages {
				if s.Stage == stage {
					b += s.Busy
				}
			}
		}
		return b
	}
	workers := map[string]int{
		"compress":   h.sndCfg.Count(numastream.Compress) * w.senders,
		"send":       h.sndCfg.Count(numastream.Send) * w.senders,
		"receive":    h.rcvCfg.Count(numastream.Receive),
		"decompress": h.rcvCfg.Count(numastream.Decompress),
	}
	busiest, busiestUtil := "none", 0.0
	for _, stage := range []string{"compress", "send", "receive", "decompress"} {
		util := 0.0
		if workers[stage] > 0 {
			util = busy(stage) / float64(workers[stage])
		}
		m["pipeline."+stage+"_util"] = util
		if util > busiestUtil {
			busiest, busiestUtil = stage, util
		}
	}
	rep.verdict = fmt.Sprintf("obs verdict %s (%v); busiest stage %s at %.0f%% utilisation",
		wins[0].Verdict, wins[0].Evidence, busiest, busiestUtil*100)

	meter := func(name string) (items, bytes float64) {
		for i := range h.regs {
			a, b := first.obs[i].Meters[name], last.obs[i].Meters[name]
			items += float64(b.Items - a.Items)
			bytes += float64(b.Bytes - a.Bytes)
		}
		return items, bytes
	}
	gauge := func(name string) (d float64) {
		for i := range h.regs {
			d += last.obs[i].Gauges[name] - first.obs[i].Gauges[name]
		}
		return d
	}
	counter := func(name string) (v float64) {
		for _, reg := range h.regs {
			v += float64(reg.CounterValue(name))
		}
		return v
	}

	compItems, _ := meter("compress")
	decItems, _ := meter("decompress")
	m["lz4.calls"] = compItems + decItems
	m["msgq.msgs"], m["msgq.bytes"] = meter("send")
	m["msgq.reconnects"] = counter(msgq.CtrRedials)
	m["msgq.resends"] = counter(msgq.CtrResends)
	for _, q := range []string{"compq_put", "sendq_put", "sendq_get", "decq_put", "decq_get"} {
		m["queue."+q+"_blocked_s"] = gauge(q + "_blocked_secs")
	}

	hits := float64(last.pool.Hits - first.pool.Hits)
	misses := float64(last.pool.Misses - first.pool.Misses)
	steals := float64(last.pool.Steals - first.pool.Steals)
	m["bufpool.hit_ratio"] = ratio(hits, hits+misses+steals)
	m["bufpool.misses"], m["bufpool.steals"] = misses, steals
	m["bufpool.outstanding_end"] = float64(h.pool.Outstanding())

	m["pipeline.source_blocked_share"] = float64(last.srcBlocked-first.srcBlocked) / 1e9 / secs / float64(w.senders)
	sinkBusy := float64(last.sinkBusy-first.sinkBusy) / 1e9
	m["pipeline.sink_busy_s"] = sinkBusy
	m["pipeline.alloc_bytes_per_chunk"] = float64(last.mem.TotalAlloc-first.mem.TotalAlloc) / chunks
	m["pipeline.allocs_per_chunk"] = float64(last.mem.Mallocs-first.mem.Mallocs) / chunks
	m["pipeline.quarantined"] = counter(pipeline.CtrQuarantined)
	m["pipeline.dup_drops"] = counter(pipeline.CtrDupDrops)
	if h.ledger != nil {
		m["pipeline.holes"] = float64(h.ledger.TotalHoles())
	} else {
		m["pipeline.holes"] = float64(rep.tally.missing)
	}
	m["pipeline.failed_share"] = ratio(float64(rep.tally.failed), float64(rep.tally.attempted))
	m["pipeline.chunk_latency_p99_ms"] = quantile(h.pooledLatencies(), 0.99) / 1e6
	m["loadgen.lateness_p99_ms"] = latenessP99

	// Spans were recorded in the even windows only.
	var on, off []float64
	for k, g := range goodput {
		if k%2 == 0 {
			on = append(on, g)
		} else {
			off = append(off, g)
		}
	}
	m["trace.overhead_share"] = 1 - median(on)/median(off)

	m["tomo.gen_ms_per_chunk"] = 0
	if w.tomo {
		m["tomo.gen_ms_per_chunk"] = float64(st.filled-st.start) / 1e6 / float64(p.ringBufs)
	}

	kernelCPUPerChunk, err := replay(h, p, rec, runSpan, m)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// What the stages, pools, queues and gateway lanes cost on top of the
	// kernels they call: run CPU minus codec, CRC and transport at their
	// replayed CPU cost per chunk, and minus the harness's own Sink.
	m["pipeline.self_cpu_share"] = 1 - (kernelCPUPerChunk*chunks+sinkBusy)/runCPU

	for name, pin := range map[string]float64{"sim.fig12_speedup": pinnedFig12Speedup, "sim.fig14_speedup": pinnedFig14Speedup} {
		if math.Abs(m[name]-pin) > pinTolerance {
			rep.fail("%s is %.12g, pinned at %.12g", name, m[name], pin)
		}
	}

	// Designed-bottleneck check: warn when a workload has stopped
	// stressing the layer it was chosen for.
	switch w.name {
	case "tomo_stream":
		if busiest != "compress" && busiest != "decompress" {
			rep.warnings = append(rep.warnings, fmt.Sprintf("tomo_stream is %s-dominated, not compress/decompress-dominated", busiest))
		}
	case "raw_passthrough":
		if m["lz4.calls"] > 0 {
			rep.warnings = append(rep.warnings, fmt.Sprintf("raw_passthrough made %.0f lz4 calls; it should make none", m["lz4.calls"]))
		}
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay pushes the first replayN chunks of the workload's exact
// sequence through each layer on its own, by direct calls into the
// layer's public functions, one goroutine, no pipeline around them. It
// fills the per-call metrics into m and returns the CPU seconds per
// chunk the kernels cost together: codec, CRC at both ends, and the
// transport on both sides.
func replay(h *harness, p params, rec *recorder, runSpan int64, m map[string]float64) (float64, error) {
	w, n := h.w, p.replayN
	replaySpan := rec.open(runSpan, "replay", h.now())
	defer func() { rec.close(replaySpan, h.now()) }()
	// lap closes a span opened at t0 and returns its duration.
	lap := func(name string, t0 int64, stream int32, seq int64) int64 {
		t1 := h.now()
		rec.addChunk(replaySpan, name, t0, t1, stream, seq, 1)
		return t1 - t0
	}

	// Pass 1, codec and CRC: compress, checksum as the send worker does,
	// checksum again as the receive worker does, decompress, check. One
	// goroutine and no waiting, so wall time is CPU time.
	cbuf := make([]byte, lz4.CompressBound(w.chunk))
	obuf := make([]byte, w.chunk)
	wireLen := make([]int, n)
	var compNs, decNs, crcNs int64
	var rawBytes, wireBytes, compCalls, fallbacks int64
	if rec != nil {
		rec.spans = slices.Grow(rec.spans, 8*n) // no allocation inside the timed loops
	}
	chunkOf := func(i int) (uint32, uint64) { return uint32(i % w.senders), uint64(i / w.senders) }
	for i := 0; i < n; i++ {
		stream, seq := chunkOf(i)
		st, sq := int32(stream), int64(seq)
		src := h.or.data(stream, seq)
		wire, packed := src, false
		if w.compress {
			t0 := h.now()
			cn, err := lz4.CompressBlock(src, cbuf)
			compNs += lap("lz4.compress", t0, st, sq)
			if err != nil {
				return 0, err
			}
			compCalls++
			if cn < len(src) {
				wire, packed = cbuf[:cn], true
			} else {
				fallbacks++ // ships raw, as the compress stage does
			}
		}
		rawBytes += int64(len(src))
		wireBytes += int64(len(wire))
		wireLen[i] = len(wire)
		for side := 0; side < 2; side++ {
			t0 := h.now()
			crc32.Checksum(wire, crcTable)
			crcNs += lap("pipeline.crc32", t0, st, sq)
		}
		out := wire
		if packed {
			t0 := h.now()
			dn, err := lz4.DecompressBlock(wire, obuf)
			decNs += lap("lz4.decompress", t0, st, sq)
			if err != nil {
				return 0, err
			}
			out = obuf[:dn]
		}
		if !h.or.check(stream, seq, out) {
			return 0, fmt.Errorf("replayed chunk %d/%d decompressed to something else", stream, seq)
		}
	}
	m["lz4.compress_ns_per_byte"] = ratio(float64(compNs), float64(rawBytes))
	m["lz4.decompress_ns_per_byte"] = ratio(float64(decNs), float64(rawBytes))
	m["lz4.ratio"] = float64(rawBytes) / float64(wireBytes)
	m["lz4.raw_fallback_share"] = ratio(float64(fallbacks), float64(compCalls))

	// The transport passes send messages framed as the pipeline frames
	// them (21-byte header part, payload part) at the wire sizes pass 1
	// found, over a private loopback pair with pooled receive frames.
	pool := bufpool.New(1)
	pull, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer pull.Close()
	pull.SetBufferPool(pool, 0)
	push := msgq.NewPush()
	defer push.Close()
	connectAt := h.now()
	push.Connect(pull.Addr().String())
	if err := push.WaitLiveTimeout(1, setupTimeout); err != nil {
		return 0, err
	}
	rec.add(replaySpan, "msgq.connect", connectAt, h.now())
	m["msgq.connect_ms"] = float64(h.now()-connectAt) / 1e6
	payload := func(i int) []byte {
		stream, seq := chunkOf(i)
		return h.or.data(stream, seq)[:wireLen[i]]
	}
	recvOne := func(i int) error {
		d, err := pull.RecvDelivery()
		if err != nil {
			return err
		}
		defer d.Frame.Release()
		// The live run has checked every byte; here a length and edge
		// comparison catches a misframed message without costing a pass
		// over the payload inside the timed loop.
		want := payload(i)
		if len(d.Msg) != 2 || len(d.Msg[1]) != len(want) ||
			!bytes.Equal(d.Msg[1][:8], want[:8]) || !bytes.Equal(d.Msg[1][len(want)-8:], want[len(want)-8:]) {
			return fmt.Errorf("replayed message %d came back different", i)
		}
		return nil
	}

	// Pass 2, transport latency: Send then Recv, one message in flight.
	var hdr [pipelineHeaderLen]byte
	msg := msgq.Message{hdr[:], nil}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pingPongAt := h.now()
	for i := 0; i < n; i++ {
		stream, seq := chunkOf(i)
		msg[1] = payload(i)
		t0 := h.now()
		err := push.Send(msg)
		lap("msgq.send", t0, int32(stream), int64(seq))
		if err != nil {
			return 0, err
		}
		t0 = h.now()
		err = recvOne(i)
		lap("msgq.recv", t0, int32(stream), int64(seq))
		if err != nil {
			return 0, err
		}
		if i == 0 {
			m["msgq.connect_to_first_delivery_ms"] = float64(h.now()-connectAt) / 1e6
		}
	}
	m["msgq.send_recv_us_per_msg"] = float64(h.now()-pingPongAt) / 1e3 / float64(n)
	runtime.ReadMemStats(&after)
	m["msgq.allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	// Pass 3, transport CPU: the same messages streamed back to back from
	// a second goroutine, as the pipeline's send worker does, so the cost
	// of waking an idle peer per message is not in it.
	streamAt, cpuBefore := h.now(), cpuSeconds()
	sendErr := make(chan error, 1)
	go func() {
		var hdr [pipelineHeaderLen]byte
		msg := msgq.Message{hdr[:], nil}
		for i := 0; i < n; i++ {
			msg[1] = payload(i)
			if err := push.Send(msg); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < n; i++ {
		if err = recvOne(i); err != nil {
			break
		}
	}
	if err != nil {
		// The sender may be blocked on a transport nobody reads any more.
		push.Close()
		pull.Close()
		<-sendErr
		return 0, err
	}
	if err := <-sendErr; err != nil {
		return 0, err
	}
	msgqCPU := (cpuSeconds() - cpuBefore) / float64(n)
	rec.addChunk(replaySpan, "msgq.stream", streamAt, h.now(), -1, 0, int64(n))
	m["msgq.cpu_us_per_msg"] = msgqCPU * 1e6
	if pool.Outstanding() != 0 {
		return 0, fmt.Errorf("replay left %d frames leased", pool.Outstanding())
	}
	kernelCPUPerChunk := float64(compNs+decNs+crcNs)/1e9/float64(n) + msgqCPU

	// Sub-microsecond operations: one span over a batch of calls.
	micro := 8 * n
	batch := func(name string, calls int, f func()) float64 {
		t0 := h.now()
		f()
		t1 := h.now()
		rec.addChunk(replaySpan, name, t0, t1, -1, 0, int64(calls))
		return float64(t1-t0) / float64(calls)
	}
	q := queue.New[int](1)
	batch("queue.put_get", 2*micro, func() {
		for i := 0; i < micro; i++ {
			q.Put(i)
			q.Get()
		}
	})
	// Hand-off: a value crosses to another goroutine and back through
	// two queues; each crossing wakes a blocked Get.
	there, back := queue.New[int](1), queue.New[int](1)
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			v, err := there.Get()
			if err != nil {
				return
			}
			back.Put(v)
		}
	}()
	m["queue.handoff_ns"] = batch("queue.handoff", 2*micro, func() {
		for i := 0; i < micro; i++ {
			there.Put(i)
			back.Get()
		}
	})
	there.Close()
	<-echoDone

	m["bufpool.get_release_ns"] = batch("bufpool.get_release", micro, func() {
		for i := 0; i < micro; i++ {
			pool.Get(0, w.chunk).Release()
		}
	})
	ledger := pipeline.NewLedger(numastream.NewRegistry(), 0)
	m["pipeline.ledger_admit_ns"] = batch("pipeline.ledger_admit", micro, func() {
		for i := 0; i < micro; i++ {
			ledger.Admit(uint32(i%w.senders), uint64(i/w.senders))
		}
	})
	const confgens = 100
	m["runtime.confgen_us"] = batch("runtime.confgen", confgens, func() {
		for i := 0; i < confgens; i++ {
			if _, _, err = generateConfigs(w); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return 0, err
	}

	// The simulator is no streaming layer; it rides along so that a
	// change to it cannot pass unseen.
	t0 := h.now()
	fig12, err := experiments.Fig12EndToEnd([]int{8})
	lap("sim.fig12", t0, -1, 0)
	if err != nil {
		return 0, err
	}
	cell := map[string]float64{}
	for _, r := range fig12 {
		if r.RecvDomain == 1 {
			cell[r.Config] = r.E2EGbps
		}
	}
	m["sim.fig12_speedup"] = ratio(cell["F"], cell["A"])
	t0 = h.now()
	_, _, factor, err := experiments.Fig14Speedup()
	fig14Ns := lap("sim.fig14", t0, -1, 0)
	if err != nil {
		return 0, err
	}
	m["sim.fig14_speedup"] = factor
	m["sim.fig14_wall_ms"] = float64(fig14Ns) / 1e6

	return kernelCPUPerChunk, nil
}
