package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"numastream/internal/cluster"
	"numastream/internal/faults"
	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/sim"
	"numastream/internal/trace"

	hostnuma "numastream/internal/numa"
)

// The deployments the harnesses run on. A figure or drill states what
// is its own — task groups, chunk count, faults, what it samples — and
// one of four cells wires the machines, links and pipelines:
//
//	pairCell      updraft1 -> lynxdtn over one 100 Gbps link: Figs 11
//	              and 12, the ratio sweep, the Fig 11 ablation, and the
//	              degraded and adapt drills
//	runHopCell    senders -> two relays -> gateway (cluster.MultiHop):
//	              the churn and fleet drills
//	fig14Run      four senders into the lynxdtn gateway over 200 Gbps:
//	              Fig 14, its trace and the migration-tax ablation
//	loopbackPair  a real sender and receiver over 127.0.0.1: the
//	              real-mode sweep, the wire journey and the degraded
//	              loopback
//
// Every cell keeps the seeds, machine construction order and summation
// order its harnesses had, so the figures reproduce bit for bit.

// sender, receiver and group build the node configs the cells run.
func sender(node string, groups ...runtime.TaskGroup) runtime.NodeConfig {
	return runtime.NodeConfig{Node: node, Role: runtime.Sender, Groups: groups}
}

func receiver(node string, groups ...runtime.TaskGroup) runtime.NodeConfig {
	return runtime.NodeConfig{Node: node, Role: runtime.Receiver, Groups: groups}
}

func group(t runtime.TaskType, n int, p runtime.Placement) runtime.TaskGroup {
	return runtime.TaskGroup{Type: t, Count: n, Placement: p}
}

// drillSender and drillReceiver are the configuration every simulated
// drill streams with: 8 compress and 4 send threads split across the
// sender's sockets; 4 receive threads on N0 and 8 decompress on N1.
func drillSender(node string) runtime.NodeConfig {
	return sender(node, group(runtime.Compress, 8, runtime.SplitAll()), group(runtime.Send, 4, runtime.SplitAll()))
}

func drillReceiver() runtime.NodeConfig {
	return receiver("lynxdtn", group(runtime.Receive, 4, runtime.PinTo(0)), group(runtime.Decompress, 8, runtime.PinTo(1)))
}

// stageWorkers is the per-stage worker count of the given configs, the
// obs engine's denominator for utilization shares.
func stageWorkers(cfgs ...runtime.NodeConfig) map[string]int {
	out := map[string]int{}
	for _, cfg := range cfgs {
		for _, g := range cfg.Groups {
			out[string(g.Type)] = g.Count
		}
	}
	return out
}

// newMachine builds a machine from cfg after mutate (nil: as calibrated).
func newMachine(eng *sim.Engine, cfg hw.Config, mutate mutator) *hw.Machine {
	if mutate != nil {
		mutate(&cfg)
	}
	return hw.New(eng, cfg)
}

// sumE2E is the streams' summed end-to-end rate in bytes per second.
func sumE2E(streams []*runtime.Stream) float64 {
	total := 0.0
	for _, st := range streams {
		total += st.EndToEndBps()
	}
	return total
}

// lastFinish is the virtual time the last of the streams finished.
func lastFinish(streams []*runtime.Stream) float64 {
	finish := 0.0
	for _, st := range streams {
		if st.FinishTime > finish {
			finish = st.FinishTime
		}
	}
	return finish
}

// sampleEvery calls fn on the virtual clock every dt seconds from t=0
// until grace ticks have seen done() true. It must stop by itself:
// sim.Engine.Run drains the event heap, so a sampler that always
// rescheduled would never let the run end. Call it before the run
// starts; the first tick fires after the runner has wired the queues.
func sampleEvery(eng *sim.Engine, dt float64, grace int, done func() bool, fn func(t float64)) {
	var tick func()
	tick = func() {
		fn(eng.Now())
		if done() {
			grace--
		}
		if grace > 0 {
			eng.After(dt, tick)
		}
	}
	eng.Schedule(0, tick)
}

// delivered is a done test for sampleEvery: every stream has delivered
// all its chunks.
func delivered(streams ...*runtime.Stream) func() bool {
	return func() bool {
		for _, st := range streams {
			if st.Delivered < st.Spec.Chunks {
				return false
			}
		}
		return true
	}
}

// addQueues adds a simulated stream's queue depths and blocked times to
// s under the series names a real registry scrape carries; keep limits
// it to the named queues. Values add, so several streams' queues sum.
func addQueues(s obs.Snapshot, st *runtime.Stream, keep ...string) {
	for _, q := range st.SampleQueues() {
		if len(keep) > 0 && !slices.Contains(keep, q.Queue) {
			continue
		}
		s.Gauges[q.Queue+"_depth"] += float64(q.Depth)
		s.Gauges[q.Queue+"_put_blocked_secs"] += q.PutBlockedSecs
		s.Gauges[q.Queue+"_get_blocked_secs"] += q.GetBlockedSecs
	}
}

// simSnapshot synthesizes an obs.Snapshot from a simulated stream's
// live state: the same series names a real registry scrape produces, on
// virtual time — which is all the diff engine needs.
func simSnapshot(t float64, st *runtime.Stream, rawBytes, items int64) obs.Snapshot {
	s := obs.Snapshot{
		T:      t,
		Meters: map[string]obs.MeterState{"delivered": {Bytes: rawBytes, Items: items}},
		Gauges: map[string]float64{},
	}
	addQueues(s, st)
	return s
}

// pairCell is one stream on the Fig 11/12 testbed: updraft1 and lynxdtn
// on one 100 Gbps "aps" link, the sender's noise seeded with seed and
// the receiver's with seed+1.
type pairCell struct {
	seed     int64
	mutate   mutator             // edits both machine configs; nil = calibrated
	faults   faults.LinkSchedule // link fault schedule; nil = healthy
	spec     runtime.StreamSpec
	snd, rcv runtime.NodeConfig

	onDeliver func(t, raw, wire float64)
	// observe runs once the stream is wired, before the engine starts:
	// where a sampler or a controller attaches.
	observe func(eng *sim.Engine, st *runtime.Stream)
}

func (c pairCell) run() (*runtime.Stream, error) {
	eng := sim.NewEngine()
	snd := runtime.NewSimNode(newMachine(eng, hw.UpdraftConfig("updraft1"), c.mutate), c.seed)
	rcv := runtime.NewSimNode(newMachine(eng, hw.LynxdtnConfig(), c.mutate), c.seed+1)
	link := netsim.NewLink(eng, "aps", hw.BytesPerSec(100), 0.45e-3)
	if err := link.SetFaults(c.faults); err != nil {
		return nil, err
	}
	st := &runtime.Stream{
		Spec:   c.spec,
		Sender: snd, SenderCfg: c.snd,
		Receiver: rcv, ReceiverCfg: c.rcv,
		Path:      netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M)),
		OnDeliver: c.onDeliver,
	}
	if c.observe != nil {
		c.observe(eng, st)
	}
	if err := (&runtime.Runner{Eng: eng, Streams: []*runtime.Stream{st}}).Run(); err != nil {
		return nil, err
	}
	return st, nil
}

// hopChunks is the per-stream chunk count of the relayed drills.
const hopChunks = 200

// hopSpec is one run of the relayed deployment: the senders, each
// through relay i mod 2 into the gateway, streaming hopChunks chunks with
// the drill configuration.
type hopSpec struct {
	name         string // stream names are "<name>-<sender>"
	senders      []cluster.SenderKind
	seed         int64
	throttleLink string // link the throttle schedule applies to; "" = none
	throttle     faults.LinkSchedule
	topo         faults.TopoSchedule // topology storm; nil = none
	every        float64             // sampler cadence in virtual seconds; 0 = no sampler
	onSample     hopSample
}

// hopSample is the sampler of a relayed run: virtual time, the
// deployment, the live streams, and each stream's delivered raw bytes
// and chunks.
type hopSample func(t float64, mh *cluster.MultiHop, streams []*runtime.Stream, raw, items []int64)

type hopCell struct {
	mh     *cluster.MultiHop
	finish float64
}

// runHopCell runs one relayed pass. The sampler outlives the work by a
// few grace windows so still-firing alerts see clean windows and resolve,
// and the regime log closes on a healthy state.
func runHopCell(h hopSpec) (hopCell, error) {
	eng := sim.NewEngine()
	mh, err := cluster.NewMultiHop(eng, h.senders, cluster.MultiHopOptions{Seed: h.seed})
	if err != nil {
		return hopCell{}, err
	}
	if h.throttleLink != "" {
		if err := mh.SetLinkFaults(h.throttleLink, h.throttle); err != nil {
			return hopCell{}, err
		}
	}
	if h.topo != nil {
		if err := mh.ApplyTopology(h.topo); err != nil {
			return hopCell{}, err
		}
	}
	raw := make([]int64, len(h.senders))
	items := make([]int64, len(h.senders))
	var streams []*runtime.Stream
	for i, s := range mh.Senders {
		node := s.Sim.M.Cfg.Name
		st, err := mh.Stream(i,
			runtime.StreamSpec{Name: h.name + "-" + node, Chunks: hopChunks, ChunkBytes: ChunkBytes, Ratio: hw.CompressionRatio},
			drillSender(node), drillReceiver())
		if err != nil {
			return hopCell{}, err
		}
		st.OnDeliver = func(_, r, _ float64) {
			raw[i] += int64(r)
			items[i]++
		}
		streams = append(streams, st)
	}
	if h.every > 0 && h.onSample != nil {
		sampleEvery(eng, h.every, 8, delivered(streams...), func(t float64) { h.onSample(t, mh, streams, raw, items) })
	}
	if err := mh.Run(streams); err != nil {
		return hopCell{}, err
	}
	return hopCell{mh: mh, finish: lastFinish(streams)}, nil
}

// fig14Run is the Figure 13 deployment: updraft1, updraft2, polaris1
// and polaris2 each streaming chunksPerStream chunks into the lynxdtn
// gateway over a shared 200 Gbps link, every machine built after mutate.
// A non-nil tracer records the gateway's per-core activity.
func fig14Run(mode Fig14Mode, chunksPerStream int, tracer *trace.Tracer, mutate mutator) (Fig14Result, error) {
	eng := sim.NewEngine()
	rcv := runtime.NewSimNode(newMachine(eng, hw.LynxdtnConfig(), mutate), 31)
	rcv.M.Tracer = tracer
	link := netsim.NewLink(eng, "aps-alcf", hw.BytesPerSec(200), 0.45e-3)

	var streams []*runtime.Stream
	for i, cfg := range []hw.Config{
		hw.UpdraftConfig("updraft1"), hw.UpdraftConfig("updraft2"),
		hw.PolarisConfig("polaris1"), hw.PolarisConfig("polaris2"),
	} {
		snd := runtime.NewSimNode(newMachine(eng, cfg, mutate), int64(41+i))
		sCfg := sender(cfg.Name, group(runtime.Compress, 32, runtime.SplitAll()), group(runtime.Send, 4, runtime.SplitAll()))
		rCfg := receiver("lynxdtn", group(runtime.Receive, 4, runtime.PinTo(1)), group(runtime.Decompress, 4, runtime.PinTo(0)))
		if mode == ModeOS {
			sCfg = runtime.GenerateOSBaseline(sCfg)
			rCfg = runtime.GenerateOSBaseline(rCfg)
		}
		streams = append(streams, &runtime.Stream{
			Spec: runtime.StreamSpec{
				Name:       fmt.Sprintf("stream-%d", i+1),
				Chunks:     chunksPerStream,
				ChunkBytes: ChunkBytes,
				Ratio:      hw.CompressionRatio,
			},
			Sender: snd, SenderCfg: sCfg,
			Receiver: rcv, ReceiverCfg: rCfg,
			Path: netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M)),
		})
	}
	if err := (&runtime.Runner{Eng: eng, Streams: streams}).Run(); err != nil {
		return Fig14Result{}, err
	}

	res := Fig14Result{Mode: mode, Horizon: lastFinish(streams)}
	for _, st := range streams {
		sr := Fig14StreamResult{
			Stream:  st.Spec.Name,
			NetGbps: hw.Gbps(st.NetworkBps()),
			E2EGbps: hw.Gbps(st.EndToEndBps()),
		}
		res.Streams = append(res.Streams, sr)
		res.TotalNet += sr.NetGbps
		res.TotalE2E += sr.E2EGbps
	}
	res.CoreStats = rcv.M.CoreStats(res.Horizon)
	return res, nil
}

// mixedPayload is the chunk the real-mode harnesses stream: seeded noise,
// then a repeated pattern — projection-like, about 2:1 under LZ4.
func mixedPayload(chunkBytes int) []byte {
	payload := make([]byte, chunkBytes)
	rand.New(rand.NewSource(7)).Read(payload[:chunkBytes/2])
	copy(payload[chunkBytes/2:], bytes.Repeat([]byte{0x11, 0x11, 0x22, 0x22}, chunkBytes/8+1)[:chunkBytes-chunkBytes/2])
	return payload
}

// repeatSource is a sender Source yielding payload n times, sleeping
// pace before each (0: no pacing).
func repeatSource(n int, payload []byte, pace time.Duration) func() []byte {
	sent := 0
	return func() []byte {
		if sent >= n {
			return nil
		}
		sent++
		if pace > 0 {
			time.Sleep(pace)
		}
		return payload
	}
}

// loopbackPair streams chunks copies of payload through the real
// pipeline: a receiver on 127.0.0.1:0 expecting exactly that many, and a
// sender dialing it. The cell fills in the host topology, addresses,
// Expect and Source; the options carry the rest.
func loopbackPair(snd pipeline.SenderOptions, rcv pipeline.ReceiverOptions, chunks int, payload []byte) error {
	topo, _ := hostnuma.Discover()
	ready := make(chan string, 1)
	rcv.Topo, rcv.Bind, rcv.Ready, rcv.Expect = topo, "127.0.0.1:0", ready, chunks
	recvErr := make(chan error, 1)
	go func() { recvErr <- pipeline.RunReceiver(rcv) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-recvErr:
		return fmt.Errorf("receiver: %w", err)
	}

	snd.Topo, snd.Peers = topo, []string{addr}
	snd.Source = repeatSource(chunks, payload, 0)
	if err := pipeline.RunSender(snd); err != nil {
		return fmt.Errorf("sender: %w", err)
	}
	if err := <-recvErr; err != nil {
		return fmt.Errorf("receiver: %w", err)
	}
	return nil
}
