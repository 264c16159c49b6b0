package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"numastream"
	"numastream/internal/bufpool"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
)

const (
	// numWindows timed windows split a run's --seconds. Every end-to-end
	// metric but setup_s is taken per window, and the run reports the
	// window at bestShare (see run.go), which stretches of a slowed-down
	// shared host do not move as long as a tenth of the run escapes them.
	// In a traced run the even windows record spans and the odd ones do
	// not, which is what trace.overhead_share compares.
	numWindows = 40
	// drainGrace is how long delivery may trail the last chunk sent
	// before the shortfall counts as failure.
	drainGrace = 5 * time.Second
	// setupTimeout bounds one set-up (bind, dial, handshake, first chunk).
	setupTimeout = 30 * time.Second
	// spanChunksPerWindow caps the per-chunk spans one stream records in
	// one traced window; counters still cover every chunk.
	spanChunksPerWindow = 1024
	// sentSlots bounds how far delivery may trail sending, in chunks per
	// stream: far above what the queues, credit window and socket
	// buffers between Source and Sink can hold.
	sentSlots = 1 << 16
)

// The node configs describe this fixed synthetic host, never the
// machine the benchmark runs on, so the work is the same everywhere.
var (
	genTopo  = numastream.TopologyInfo{Sockets: 1, CoresPerSocket: 2, NICSocket: 0}
	hostTopo = numastream.SyntheticTopology(1, 2)
)

// generateConfigs is the configuration generator call the harness
// makes for every workload: one send/receive thread pair, compression
// stages only when the workload has them.
func generateConfigs(w workload) (snd, rcv numastream.NodeConfig, err error) {
	opts := numastream.GenerateOptions{Streams: 1, Compression: w.compress, SendThreads: 1}
	if snd, err = numastream.GenerateSenderConfig("src", genTopo, opts); err != nil {
		return snd, rcv, err
	}
	rcv, err = numastream.GenerateReceiverConfig("gw", genTopo, opts)
	return snd, rcv, err
}

// streamState is one sender's load generator and the oracle's record of
// what came out for it.
type streamState struct {
	id    uint32
	limit int64 // chunks this stream may send (1 in a dry set-up)

	// Written by the sender's feeder goroutine (the only caller of the
	// stream's Source); sent is read elsewhere.
	sent       atomic.Int64
	lastReturn int64
	paceBase   int64
	late       []int64 // open loop: how late each chunk of the timed windows left
	// window holds one token per chunk of this stream that is in the
	// pipeline: Source blocks while it is full, so a closed loop has a
	// stated number of chunks outstanding. nil in the open loop.
	window   chan struct{}
	srcSpans []span
	srcSpanN [numWindows]int

	// sentAt[seq%sentSlots] is when chunk seq entered the pipeline:
	// Source's return in a closed loop, the due time in an open one.
	sentAt []atomic.Int64

	// Written by whichever goroutine delivers this stream; the pipeline
	// serialises a stream's Sink calls (sink mutex, or its lane).
	seen      []uint64 // exactly-once bitmap by seq
	unique    int64
	dups      int64
	corrupt   int64
	lat       [numWindows][]int64 // sentAt → Sink entry, by the window of the delivery
	sinkSpans []span
	sinkSpanN [numWindows]int
}

// markSeen sets seq's bit and reports whether it was already set.
func (s *streamState) markSeen(seq uint64) bool {
	word, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(s.seen)) <= word {
		s.seen = append(s.seen, 0)
	}
	was := s.seen[word]&bit != 0
	s.seen[word] |= bit
	return was
}

// harness is one live sender(s) → loopback TCP → receiver pipeline,
// started through the public entry points, with the load generator
// (Source callbacks) and the correctness oracle (Sink) attached.
type harness struct {
	w       workload
	epoch   time.Time
	or      *oracle
	streams []*streamState
	traced  bool

	pool   *bufpool.Pool
	regs   []*numastream.Registry // regs[0]: receiver and sender 0; regs[i]: sender i
	ledger *pipeline.Ledger       // sharded workloads only
	sndCfg numastream.NodeConfig
	rcvCfg numastream.NodeConfig

	stopSrc  chan struct{} // closed to make the Sources stop yielding
	winStart atomic.Int64  // start of window 0, ns since epoch; 0 until set
	winLen   int64

	deliveredBytes  atomic.Int64
	deliveredChunks atomic.Int64 // first, intact deliveries
	strays          atomic.Int64 // deliveries naming a stream never sent
	srcBlockedNs    atomic.Int64
	sinkBusyNs      atomic.Int64

	first     chan struct{} // closed at the first Sink entry
	firstOnce sync.Once
	stopRecv  chan struct{}
	sendErr   chan error
	recvErr   chan error
}

func (h *harness) now() int64 { return int64(time.Since(h.epoch)) }

func (h *harness) stopped() bool {
	select {
	case <-h.stopSrc:
		return true
	default:
		return false
	}
}

// window maps a time to the timed window it falls in, -1 outside them.
func (h *harness) window(t int64) int {
	ws := h.winStart.Load()
	if ws == 0 || t < ws {
		return -1
	}
	if k := (t - ws) / h.winLen; k < numWindows {
		return int(k)
	}
	return -1
}

func (h *harness) spansOn(win int) bool { return h.traced && win >= 0 && win%2 == 0 }

// source is the load generator of one stream. Closed loop: the
// pipeline's feeder calls it as fast as the compress (or send) queue
// accepts chunks, and it hands the next one over once fewer than the
// workload's window of this stream's chunks are outstanding. Open loop:
// chunk i is due at base + i/rate on an absolute schedule, so a late
// chunk delays nothing after it and none is skipped.
func (h *harness) source(s *streamState) func() []byte {
	period := int64(0)
	if h.w.ratePerSc > 0 {
		period = int64(float64(time.Second) / h.w.ratePerSc)
	}
	return func() []byte {
		entry := h.now()
		seq := s.sent.Load()
		if h.stopped() || seq >= s.limit {
			return nil
		}
		if seq == 0 {
			s.paceBase, s.lastReturn = entry, entry
		}
		// handed is when the chunk enters the pipeline; until heldTo the
		// pipeline held the generator back (full queue, then full window).
		handed, heldTo := entry, entry
		if period > 0 {
			due := s.paceBase + seq*period
			time.Sleep(time.Duration(due - entry))
			handed = h.now()
			if h.window(handed) >= 0 {
				s.late = append(s.late, handed-due)
			}
			s.sentAt[seq%sentSlots].Store(due)
		} else {
			select {
			case <-h.stopSrc:
				return nil
			case s.window <- struct{}{}:
			}
			handed = h.now()
			heldTo = handed
			s.sentAt[seq%sentSlots].Store(handed)
		}
		h.srcBlockedNs.Add(heldTo - s.lastReturn)
		if win := h.window(entry); h.spansOn(win) && s.srcSpanN[win] < spanChunksPerWindow {
			s.srcSpanN[win]++
			s.srcSpans = append(s.srcSpans, span{Parent: int64(win), Name: "source.blocked",
				Start: s.lastReturn, End: heldTo, Stream: int32(s.id), Seq: seq, Calls: 1})
		}
		s.sent.Store(seq + 1)
		s.lastReturn = handed
		return h.or.data(s.id, uint64(seq))
	}
}

// sink is the correctness oracle: content against the ring checksum
// table, exactly-once against the stream's bitmap. It also timestamps
// the delivery, which is where chunk latency ends.
func (h *harness) sink(c numastream.Chunk) error {
	t := h.now()
	defer h.firstOnce.Do(func() { close(h.first) })
	if int(c.Stream) >= len(h.streams) {
		h.strays.Add(1)
		return nil
	}
	s := h.streams[c.Stream]
	win := h.window(t)
	switch {
	case int64(c.Seq) >= s.sent.Load() || !h.or.check(c.Stream, c.Seq, c.Data):
		s.corrupt++
	case s.markSeen(c.Seq):
		s.dups++
	default:
		s.unique++
		sentAt := s.sentAt[c.Seq%sentSlots].Load()
		if win >= 0 {
			s.lat[win] = append(s.lat[win], t-sentAt)
		}
		select {
		case <-s.window: // one fewer outstanding
		default:
		}
		h.deliveredBytes.Add(int64(len(c.Data)))
		h.deliveredChunks.Add(1)
		if h.spansOn(win) && s.sinkSpanN[win] < spanChunksPerWindow {
			s.sinkSpanN[win]++
			s.sinkSpans = append(s.sinkSpans,
				span{Parent: int64(win), Name: "chunk.e2e", Start: sentAt, End: t,
					Stream: int32(s.id), Seq: int64(c.Seq), Calls: 1},
				span{Parent: int64(win), Name: "sink.verify", Start: t, End: h.now(),
					Stream: int32(s.id), Seq: int64(c.Seq), Calls: 1})
		}
	}
	h.sinkBusyNs.Add(h.now() - t)
	return nil
}

// setupTimes marks the parts of one set-up, in ns since the epoch:
// inputs written, checksum table built, configs generated, receiver
// bound, first chunk out of the Sink.
type setupTimes struct {
	start, filled, summed, configured, bound, live int64
}

func (st setupTimes) total() time.Duration { return time.Duration(st.live - st.start) }

// setUp generates the inputs for seed into ring, generates the node
// configs, binds the receiver, dials it from every sender and returns
// once the first chunk has come out of the Sink. limit caps the chunks
// per stream: 1 makes a dry set-up that only exists to be timed.
func setUp(w workload, ring []byte, seed, limit int64, epoch time.Time, traced bool) (*harness, setupTimes, error) {
	h := &harness{w: w, epoch: epoch, traced: traced,
		first: make(chan struct{}), stopSrc: make(chan struct{}), stopRecv: make(chan struct{}),
		sendErr: make(chan error, w.senders), recvErr: make(chan error, 1)}
	var st setupTimes
	st.start = h.now()

	fillRing(ring, w, seed)
	st.filled = h.now()
	h.or = newOracle(ring, w, seed)
	st.summed = h.now()

	var err error
	if h.sndCfg, h.rcvCfg, err = generateConfigs(w); err != nil {
		return nil, st, err
	}
	st.configured = h.now()

	h.pool = bufpool.New(len(hostTopo.Nodes))
	for i := 0; i < w.senders; i++ {
		h.regs = append(h.regs, numastream.NewRegistry())
		s := &streamState{id: uint32(i), limit: limit, sentAt: make([]atomic.Int64, sentSlots)}
		if w.window > 0 {
			s.window = make(chan struct{}, w.window)
		}
		h.streams = append(h.streams, s)
	}
	ropts := numastream.ReceiverOptions{
		Cfg: h.rcvCfg, Topo: hostTopo, Bind: "127.0.0.1:0", Stop: h.stopRecv,
		Sink: h.sink, Metrics: h.regs[0], BufPool: h.pool,
	}
	if w.shards > 0 {
		h.ledger = pipeline.NewLedger(h.regs[0], 0)
		ropts.Shards, ropts.ExactlyOnce, ropts.Ledger = w.shards, true, h.ledger
	}
	ready := make(chan string, 1)
	ropts.Ready = ready
	go func() { h.recvErr <- numastream.StartReceiver(ropts) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-h.recvErr:
		return nil, st, fmt.Errorf("receiver did not start: %w", err)
	}
	st.bound = h.now()

	for i, s := range h.streams {
		cfg := h.sndCfg
		cfg.Node = fmt.Sprintf("src%d", i)
		sopts := numastream.SenderOptions{
			Cfg: cfg, Topo: hostTopo, Peers: []string{addr}, Source: h.source(s),
			StreamID: s.id, Metrics: h.regs[i], BufPool: h.pool,
		}
		go func() { h.sendErr <- numastream.StartSender(sopts) }()
	}
	select {
	case <-h.first:
	case err := <-h.recvErr:
		return nil, st, fmt.Errorf("receiver stopped during set-up: %v", err)
	case <-time.After(setupTimeout):
		return nil, st, fmt.Errorf("no chunk delivered within %v of set-up", setupTimeout)
	}
	st.live = h.now()
	return h, st, nil
}

func (h *harness) sent() int64 {
	var n int64
	for _, s := range h.streams {
		n += s.sent.Load()
	}
	return n
}

// finish ends the stream: the Sources stop yielding, the senders drain
// and return, and the receiver is stopped once everything sent has been
// delivered or the drain grace has run out.
func (h *harness) finish() error {
	close(h.stopSrc)
	var firstErr error
	for range h.streams {
		if err := <-h.sendErr; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sender: %w", err)
		}
	}
	for deadline := time.Now().Add(drainGrace); h.deliveredChunks.Load() < h.sent() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(h.stopRecv)
	if err := <-h.recvErr; err != nil && firstErr == nil {
		firstErr = fmt.Errorf("receiver: %w", err)
	}
	return firstErr
}

// tally is the oracle's final count for a finished run.
type tally struct {
	attempted int64 // chunks handed to the pipeline
	failed    int64 // undelivered, delivered twice, or wrong content
	missing   int64
	dups      int64
	corrupt   int64
}

func (h *harness) tally() tally {
	t := tally{corrupt: h.strays.Load()}
	for _, s := range h.streams {
		sent := s.sent.Load()
		t.attempted += sent
		t.missing += sent - s.unique
		t.dups += s.dups
		t.corrupt += s.corrupt
	}
	t.failed = t.missing + t.dups + t.corrupt
	return t
}

// snapshot is the state read at one window boundary.
type snapshot struct {
	t          int64 // ns since epoch, as read (not the nominal boundary)
	bytes      int64
	chunks     int64
	cpu        float64 // process user+sys seconds
	peakRSS    float64 // MB, highest since the previous snapshot
	srcBlocked int64
	sinkBusy   int64
	// Traced runs only.
	obs  []obs.Snapshot
	pool bufpool.Stats
	mem  runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the resident-set high-water mark in MB (10⁶ B) and
// restarts it, so each window reports its own peak and set-up garbage
// is not carried into the timed windows. Where the kernel does not let
// the mark be restarted it simply stays the process-wide peak.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err) // the benchmark runs on Linux
	}
	_, rest, _ := strings.Cut(string(status), "VmHWM:")
	var kib float64
	fmt.Sscan(rest, &kib)
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	return kib * 1024 / 1e6
}

func (h *harness) snap() snapshot {
	s := snapshot{t: h.now(), bytes: h.deliveredBytes.Load(), chunks: h.deliveredChunks.Load(),
		cpu: cpuSeconds(), peakRSS: peakRSSMB(), srcBlocked: h.srcBlockedNs.Load(), sinkBusy: h.sinkBusyNs.Load()}
	if h.traced {
		for _, reg := range h.regs {
			s.obs = append(s.obs, obs.Capture(reg, float64(s.t)/1e9))
		}
		s.pool = h.pool.Stats()
		runtime.ReadMemStats(&s.mem)
	}
	return s
}

// measure runs the warm-up and the timed windows on the live pipeline
// and returns the numWindows+1 boundary snapshots.
func (h *harness) measure(seconds float64) []snapshot {
	h.winLen = int64(seconds * float64(time.Second) / numWindows)
	warmUp := int64(seconds * float64(time.Second) / 20)
	start := h.now() + warmUp
	h.winStart.Store(start)
	snaps := make([]snapshot, 0, numWindows+1)
	for k := int64(0); k <= numWindows; k++ {
		time.Sleep(time.Duration(start + k*h.winLen - h.now()))
		snaps = append(snaps, h.snap())
	}
	return snaps
}

// windowLatencies returns, for every timed window that saw a delivery,
// the p50 and p95 in ms of the chunks delivered in it, all streams
// together, and the number of samples in all.
func (h *harness) windowLatencies() (p50, p95 []float64, samples int) {
	for k := 0; k < numWindows; k++ {
		var lat []int64
		for _, s := range h.streams {
			lat = append(lat, s.lat[k]...)
		}
		if len(lat) == 0 {
			continue
		}
		samples += len(lat)
		slices.Sort(lat)
		p50 = append(p50, quantile(lat, 0.50)/1e6)
		p95 = append(p95, quantile(lat, 0.95)/1e6)
	}
	return p50, p95, samples
}

// pooledLatencies is every timed latency sample of the run, sorted.
func (h *harness) pooledLatencies() []int64 {
	var all []int64
	for _, s := range h.streams {
		for _, lat := range s.lat {
			all = append(all, lat...)
		}
	}
	slices.Sort(all)
	return all
}

// quantile reads the q-quantile off a sorted sample (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}
