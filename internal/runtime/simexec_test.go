package runtime

import (
	"math"
	"testing"

	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/obs"
	"numastream/internal/sim"
)

// testbed wires an updraft1-class sender to a lynxdtn-class receiver over
// a 100 Gbps path, the §4.1 setup (Figure 10).
type testbed struct {
	eng      *sim.Engine
	sender   *SimNode
	receiver *SimNode
	path     *netsim.Path
}

func newTestbed(linkGbps float64) *testbed {
	eng := sim.NewEngine()
	snd := NewSimNode(hw.NewUpdraft(eng, "updraft1"), 1)
	rcv := NewSimNode(hw.NewLynxdtn(eng), 2)
	link := netsim.NewLink(eng, "path", hw.BytesPerSec(linkGbps), 0.45e-3)
	path := netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M))
	return &testbed{eng: eng, sender: snd, receiver: rcv, path: path}
}

func (tb *testbed) run(t *testing.T, spec StreamSpec, sCfg, rCfg NodeConfig) *Stream {
	t.Helper()
	st := &Stream{
		Spec:        spec,
		Sender:      tb.sender,
		SenderCfg:   sCfg,
		Receiver:    tb.receiver,
		ReceiverCfg: rCfg,
		Path:        tb.path,
	}
	r := &Runner{Eng: tb.eng, Streams: []*Stream{st}}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func senderCfg(nComp, nSend int, compPlace, sendPlace Placement) NodeConfig {
	cfg := NodeConfig{Node: "updraft1", Role: Sender}
	if nComp > 0 {
		cfg.Groups = append(cfg.Groups, TaskGroup{Type: Compress, Count: nComp, Placement: compPlace})
	}
	cfg.Groups = append(cfg.Groups, TaskGroup{Type: Send, Count: nSend, Placement: sendPlace})
	return cfg
}

func receiverCfg(nRecv, nDec int, recvPlace, decPlace Placement) NodeConfig {
	cfg := NodeConfig{Node: "lynxdtn", Role: Receiver,
		Groups: []TaskGroup{{Type: Receive, Count: nRecv, Placement: recvPlace}}}
	if nDec > 0 {
		cfg.Groups = append(cfg.Groups, TaskGroup{Type: Decompress, Count: nDec, Placement: decPlace})
	}
	return cfg
}

func defaultSpec(chunks int) StreamSpec {
	return StreamSpec{
		Name:       "s",
		Chunks:     chunks,
		ChunkBytes: 11.0592e6,
		Ratio:      2,
	}
}

func TestRunDeliversAllChunks(t *testing.T) {
	tb := newTestbed(100)
	st := tb.run(t, defaultSpec(50),
		senderCfg(8, 2, SplitAll(), SplitAll()),
		receiverCfg(2, 4, PinTo(1), PinTo(0)))
	if st.Delivered != 50 {
		t.Fatalf("delivered %d, want 50", st.Delivered)
	}
	if st.FinishTime <= 0 || st.WarmTime <= 0 || st.FinishTime <= st.WarmTime {
		t.Fatalf("times: warm %v finish %v", st.WarmTime, st.FinishTime)
	}
}

// TestCompressionBoundMatchesPaperBaseline reproduces the paper's
// configuration-A anchor: 8 compression threads bottleneck the stream at
// ~37 Gbps end-to-end regardless of other thread counts (§4.1).
func TestCompressionBoundMatchesPaperBaseline(t *testing.T) {
	tb := newTestbed(100)
	st := tb.run(t, defaultSpec(120),
		senderCfg(8, 4, SplitAll(), SplitAll()),
		receiverCfg(4, 8, PinTo(1), PinTo(0)))
	got := hw.Gbps(st.EndToEndBps())
	if math.Abs(got-37)/37 > 0.1 {
		t.Fatalf("end-to-end = %.1f Gbps, want ~37 (8 compress threads)", got)
	}
	// Network carries half the bytes at ratio 2.
	net := hw.Gbps(st.NetworkBps())
	if math.Abs(net-got/2)/(got/2) > 0.05 {
		t.Fatalf("network = %.1f Gbps, want ~%.1f (half of e2e)", net, got/2)
	}
}

// TestMoreCompressionThreadsShiftBottleneck: doubling compression threads
// roughly doubles throughput while compression remains the bottleneck.
func TestMoreCompressionThreadsShiftBottleneck(t *testing.T) {
	r8 := newTestbed(100).run(t, defaultSpec(120),
		senderCfg(8, 4, SplitAll(), SplitAll()),
		receiverCfg(4, 8, PinTo(1), PinTo(0)))
	r16 := newTestbed(100).run(t, defaultSpec(120),
		senderCfg(16, 4, SplitAll(), SplitAll()),
		receiverCfg(4, 8, PinTo(1), PinTo(0)))
	ratio := r16.EndToEndBps() / r8.EndToEndBps()
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("16C/8C throughput ratio = %.2f, want ~2", ratio)
	}
}

// TestReceiverPlacementPenalty: with the NIC on NUMA 1, receive threads
// pinned to NUMA 0 lose ~15% (Obs. 1/4) when the receive path is the
// bottleneck.
func TestReceiverPlacementPenalty(t *testing.T) {
	spec := defaultSpec(150)
	spec.Ratio = 1 // pure network I/O, §3.4 style
	run := func(place Placement) float64 {
		tb := newTestbed(100)
		st := tb.run(t, spec,
			senderCfg(0, 2, SplitAll(), SplitAll()),
			receiverCfg(2, 0, place, Placement{}))
		return st.EndToEndBps()
	}
	local := run(PinTo(1))
	remote := run(PinTo(0))
	drop := (local - remote) / local
	if drop < 0.08 || drop > 0.2 {
		t.Fatalf("remote receive drop = %.1f%%, want ~13%%", drop*100)
	}
}

// TestSenderPlacementIrrelevant: sender-side thread placement does not
// move throughput (Obs. 4).
func TestSenderPlacementIrrelevant(t *testing.T) {
	spec := defaultSpec(150)
	spec.Ratio = 1
	run := func(place Placement) float64 {
		tb := newTestbed(100)
		st := tb.run(t, spec,
			senderCfg(0, 2, Placement{}, place),
			receiverCfg(2, 0, PinTo(1), Placement{}))
		return st.EndToEndBps()
	}
	s0 := run(PinTo(0))
	s1 := run(PinTo(1))
	if math.Abs(s0-s1)/s1 > 0.03 {
		t.Fatalf("sender placement moved throughput: %.2f vs %.2f Gbps",
			hw.Gbps(s0), hw.Gbps(s1))
	}
}

// TestNICSaturation: enough send/receive threads saturate the 100 Gbps
// path and adding more does not help (Fig 11's plateau).
func TestNICSaturation(t *testing.T) {
	spec := defaultSpec(200)
	spec.Ratio = 1
	run := func(threads int) float64 {
		tb := newTestbed(100)
		st := tb.run(t, spec,
			senderCfg(0, threads, Placement{}, SplitAll()),
			receiverCfg(threads, 0, PinTo(1), Placement{}))
		return hw.Gbps(st.EndToEndBps())
	}
	at4 := run(4)
	at8 := run(8)
	if at4 < 85 {
		t.Fatalf("4 threads = %.1f Gbps, want near 100 (NIC saturation)", at4)
	}
	if at8 > 101 || at4 > 101 {
		t.Fatalf("throughput exceeds the NIC: %v, %v", at4, at8)
	}
	if (at8-at4)/at4 > 0.1 {
		t.Fatalf("threads beyond saturation still scaled: %v -> %v", at4, at8)
	}
}

// TestGenRateLimitsThroughput: a rate-limited source caps the stream
// (§3.1's fixed-rate instrument emulation).
func TestGenRateLimitsThroughput(t *testing.T) {
	spec := defaultSpec(100)
	spec.Ratio = 1
	spec.GenRate = hw.BytesPerSec(6)
	tb := newTestbed(100)
	st := tb.run(t, spec,
		senderCfg(0, 1, Placement{}, SplitAll()),
		receiverCfg(1, 0, PinTo(1), Placement{}))
	got := hw.Gbps(st.EndToEndBps())
	if math.Abs(got-6)/6 > 0.1 {
		t.Fatalf("rate-limited stream = %.2f Gbps, want ~6", got)
	}
}

// TestOSPlacementSlower: OS-default placement underperforms the
// runtime's pinned placement on a receive-bound workload (§4.2).
func TestOSPlacementSlower(t *testing.T) {
	spec := defaultSpec(150)
	spec.Ratio = 1
	pinned := newTestbed(100).run(t, spec,
		senderCfg(0, 2, Placement{}, SplitAll()),
		receiverCfg(2, 0, PinTo(1), Placement{}))
	osRun := newTestbed(100).run(t, spec,
		senderCfg(0, 2, Placement{}, SplitAll()),
		receiverCfg(2, 0, OS(), Placement{}))
	if osRun.EndToEndBps() >= pinned.EndToEndBps() {
		t.Fatalf("OS placement (%.1f Gbps) not slower than pinned (%.1f Gbps)",
			hw.Gbps(osRun.EndToEndBps()), hw.Gbps(pinned.EndToEndBps()))
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	tb := newTestbed(100)
	mk := func(spec StreamSpec) error {
		st := &Stream{
			Spec:        spec,
			Sender:      tb.sender,
			SenderCfg:   senderCfg(0, 1, Placement{}, SplitAll()),
			Receiver:    tb.receiver,
			ReceiverCfg: receiverCfg(1, 0, PinTo(1), Placement{}),
			Path:        tb.path,
		}
		return (&Runner{Eng: tb.eng, Streams: []*Stream{st}}).Run()
	}
	if err := mk(StreamSpec{Chunks: 2, ChunkBytes: 1e6}); err == nil {
		t.Fatal("accepted too few chunks")
	}
	if err := mk(StreamSpec{Chunks: 100, ChunkBytes: 0}); err == nil {
		t.Fatal("accepted zero chunk size")
	}
}

func TestRunRejectsMissingThreads(t *testing.T) {
	tb := newTestbed(100)
	st := &Stream{
		Spec:        defaultSpec(10),
		Sender:      tb.sender,
		SenderCfg:   NodeConfig{Node: "s", Role: Sender}, // no send group
		Receiver:    tb.receiver,
		ReceiverCfg: receiverCfg(1, 0, PinTo(1), Placement{}),
		Path:        tb.path,
	}
	if err := (&Runner{Eng: tb.eng, Streams: []*Stream{st}}).Run(); err == nil {
		t.Fatal("accepted config without send threads")
	}
}

func TestRunRejectsMissingPath(t *testing.T) {
	tb := newTestbed(100)
	st := &Stream{
		Spec:        defaultSpec(10),
		Sender:      tb.sender,
		SenderCfg:   senderCfg(0, 1, Placement{}, SplitAll()),
		Receiver:    tb.receiver,
		ReceiverCfg: receiverCfg(1, 0, PinTo(1), Placement{}),
	}
	if err := (&Runner{Eng: tb.eng, Streams: []*Stream{st}}).Run(); err == nil {
		t.Fatal("accepted stream without a path")
	}
}

func TestPlaceGroupPinned(t *testing.T) {
	eng := sim.NewEngine()
	n := NewSimNode(hw.NewLynxdtn(eng), 3)
	cores, unpinned := PlaceGroup(n, TaskGroup{Type: Receive, Count: 4, Placement: PinTo(1)})
	if unpinned {
		t.Fatal("pinned group reported unpinned")
	}
	for _, c := range cores {
		if c.Socket != 1 {
			t.Fatalf("pinned worker landed on socket %d", c.Socket)
		}
	}
}

func TestPlaceGroupSplitBalances(t *testing.T) {
	eng := sim.NewEngine()
	n := NewSimNode(hw.NewLynxdtn(eng), 3)
	cores, _ := PlaceGroup(n, TaskGroup{Type: Decompress, Count: 16, Placement: SplitAll()})
	perSocket := map[int]int{}
	for _, c := range cores {
		perSocket[c.Socket]++
	}
	if perSocket[0] != 8 || perSocket[1] != 8 {
		t.Fatalf("split placement = %v, want 8/8", perSocket)
	}
}

func TestPlaceGroupOSIsUnpinnedAndSeeded(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSimNode(hw.NewLynxdtn(eng), 42)
	b := NewSimNode(hw.NewLynxdtn(eng), 42)
	ca, ua := PlaceGroup(a, TaskGroup{Type: Receive, Count: 8, Placement: OS()})
	cb, ub := PlaceGroup(b, TaskGroup{Type: Receive, Count: 8, Placement: OS()})
	if !ua || !ub {
		t.Fatal("OS group not reported unpinned")
	}
	for i := range ca {
		if ca[i].ID != cb[i].ID {
			t.Fatal("same-seed OS placement not deterministic")
		}
	}
}

func TestMultiStreamSharedReceiver(t *testing.T) {
	// Two streams into one gateway must both complete and share the
	// NIC fairly.
	eng := sim.NewEngine()
	rcv := NewSimNode(hw.NewLynxdtn(eng), 7)
	link := netsim.NewLink(eng, "backbone", hw.BytesPerSec(200), 0.45e-3)
	var streams []*Stream
	for i := 0; i < 2; i++ {
		snd := NewSimNode(hw.NewUpdraft(eng, "updraft"), int64(i+1))
		path := netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M))
		spec := defaultSpec(80)
		spec.Ratio = 1
		streams = append(streams, &Stream{
			Spec:        spec,
			Sender:      snd,
			SenderCfg:   senderCfg(0, 2, Placement{}, SplitAll()),
			Receiver:    rcv,
			ReceiverCfg: receiverCfg(2, 0, PinTo(1), Placement{}),
			Path:        path,
		})
	}
	if err := (&Runner{Eng: eng, Streams: streams}).Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	a, b := streams[0].EndToEndBps(), streams[1].EndToEndBps()
	if a <= 0 || b <= 0 {
		t.Fatalf("throughputs: %v, %v", a, b)
	}
	if math.Abs(a-b)/math.Max(a, b) > 0.15 {
		t.Fatalf("unfair sharing: %.1f vs %.1f Gbps", hw.Gbps(a), hw.Gbps(b))
	}
}

func TestDefaultRatesMatchCalibration(t *testing.T) {
	r := DefaultRates()
	if r.Compress != hw.CompressRate || r.Decompress != hw.DecompressRate {
		t.Fatal("DefaultRates out of sync with hw calibration")
	}
}

// limiter is what obs blames over the whole of a finished run.
func limiter(st *Stream) obs.Limiter {
	return obs.Diff(obs.Snapshot{}, st.Snapshot(st.FinishTime), nil).Limiter
}

// TestQueueStatsLocateBottleneck: when compression is the slow stage,
// its input queue's producers block while the send queue's hardly do,
// and obs blames compq — the §4.1 bottleneck analysis. With the default
// 64 slots an 80-chunk source is mostly queue fill: the producer blocks
// for the last 16 chunks, under obs's backpressure floor, and compq is
// named as the drained queue whose producers blocked longest. With 8
// slots the producer blocks for most of the run.
func TestQueueStatsLocateBottleneck(t *testing.T) {
	for _, tc := range []struct {
		queueCap int
		rule     string
	}{
		{64, obs.RuleDeepestQueue}, // the default
		{8, obs.RuleBackpressure},
	} {
		tb := newTestbed(100)
		spec := defaultSpec(80)
		spec.QueueCap = tc.queueCap
		st := tb.run(t, spec,
			senderCfg(2, 4, SplitAll(), SplitAll()), // starved: 2 compressors
			receiverCfg(4, 8, PinTo(1), PinTo(0)))
		g := st.Snapshot(st.FinishTime).Gauges
		if len(g) != 12 {
			t.Fatalf("%d-slot queues: gauges = %v, want 3 for each of 4 queues", spec.QueueCap, g)
		}
		if l := limiter(st); l.Name != "compq" || l.Rule != tc.rule {
			t.Fatalf("%d-slot queues: limiter = %+v, want compq by %s (gauges %v)", spec.QueueCap, l, tc.rule, g)
		}
		if g["compq_put_blocked_secs"] <= g["sendq_put_blocked_secs"] {
			t.Fatalf("%d-slot queues: compq producers blocked %.3f s, not more than sendq's %.3f s",
				spec.QueueCap, g["compq_put_blocked_secs"], g["sendq_put_blocked_secs"])
		}
	}
}

// TestBottleneckShiftsWithDecompression: starving the decompression
// stage moves the bottleneck to the receiver side.
func TestBottleneckShiftsWithDecompression(t *testing.T) {
	tb := newTestbed(100)
	st := tb.run(t, defaultSpec(80),
		senderCfg(32, 8, SplitAll(), SplitAll()),
		receiverCfg(8, 1, PinTo(1), PinTo(0))) // starved: 1 decompressor
	if l := limiter(st); l.Name != "decq" {
		t.Fatalf("limiter = %+v, want decq (gauges %v)", l, st.Snapshot(st.FinishTime).Gauges)
	}
}
