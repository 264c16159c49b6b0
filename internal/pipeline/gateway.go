package pipeline

import (
	"sync"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/queue"
)

// The receiver's intake and delivery mechanisms (RunReceiver in
// stream.go wires them around the receive and decompress pools), each
// sized so one misbehaving stream cannot touch the others:
//
//   - per-shard receive queues: a dispatch hook on the transport's read
//     goroutines peeks each frame's 21-byte header and routes
//     stream-hash → shard; receive workers drain the shards with a
//     backlog-weighted round-robin cursor (msgq.ShardCursor), so a deep
//     shard gets burst service but no shard starves. One shard is the
//     single inbox;
//   - admission control: at most MaxStreams distinct streams are ever
//     admitted (first come wins, stickily); a stream past the limit is
//     rejected at dispatch — counted (CtrStreamsRejected /
//     CtrChunksRejected) and dropped before it can occupy a queue slot;
//   - per-stream credit: each admitted stream holds at most StreamCredit
//     chunks anywhere downstream of dispatch (shard ring, decompress
//     queue, delivery lane). The gate blocks the stream's own read
//     connection when credit runs out, which TCP turns into sender-side
//     backpressure on that stream alone — a slow or quarantined consumer
//     throttles only itself, never the shared shard queues. Without
//     credit in force the gate is nil and backpressure is the queues';
//   - per-stream delivery lanes: each admitted stream's ledger
//     admission, Sink call and sequence accounting run one chunk at a
//     time, so no lock is shared between streams — a global sink mutex
//     would be a thousand-way contention point. With credit in force a
//     lane is a goroutine with its own queue, and a Sink that stalls
//     parks exactly one lane; without, the stage worker that finished a
//     chunk delivers it under the lane's mutex.

// Gateway counters and gauges recorded in ReceiverOptions.Metrics.
const (
	// CtrStreamsRejected counts distinct streams turned away by
	// admission control (MaxStreams).
	CtrStreamsRejected = "streams_rejected"
	// CtrChunksRejected counts chunks dropped at dispatch because their
	// stream was rejected.
	CtrChunksRejected = "chunks_rejected"
	// CtrCreditWaits counts dispatch-side credit acquisitions that had
	// to block — per-stream backpressure events.
	CtrCreditWaits = "credit_waits"
	// GaugeStreamsAdmitted is the number of distinct streams admitted so
	// far; GaugeCreditBlocked is how many streams are blocked on credit
	// right now.
	GaugeStreamsAdmitted = "streams_admitted"
	GaugeCreditBlocked   = "credit_blocked_streams"
)

// ShardsAuto asks the receiver to align the shard count with the
// host's NUMA topology: one shard per domain, minimum 2.
const ShardsAuto = -1

// DefaultStreamCredit is the per-stream in-flight chunk window in force
// when Shards is set and StreamCredit is not.
const DefaultStreamCredit = 8

// shardRingDepth is the per-shard ring depth.
const shardRingDepth = 64

// ShardHash maps a stream id onto one of n shards. splitmix-style
// avalanche so adjacent stream ids spread instead of clustering.
func ShardHash(stream uint32, n int) int {
	x := uint64(stream) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Admission is sticky first-come stream admission control: the first
// MaxStreams distinct stream ids are admitted for good, every later id
// is rejected for good (and counted). Sticky both ways, so a stream's
// fate cannot flap with chunk arrival order. Safe for concurrent use;
// shared between the live gateway and the netsim drill so both run the
// same policy.
type Admission struct {
	mu       sync.Mutex
	max      int
	admitted map[uint32]struct{}
	rejected map[uint32]struct{}

	streamsRej *metrics.Counter
	chunksRej  *metrics.Counter
}

// NewAdmission builds an admission gate over reg. max <= 0 means
// unlimited (every stream admits; the counters still register).
func NewAdmission(reg *metrics.Registry, max int) *Admission {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	a := &Admission{
		max:        max,
		admitted:   make(map[uint32]struct{}),
		rejected:   make(map[uint32]struct{}),
		streamsRej: reg.Counter(CtrStreamsRejected),
		chunksRej:  reg.Counter(CtrChunksRejected),
	}
	reg.RegisterGauge(GaugeStreamsAdmitted, func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.admitted))
	})
	return a
}

// Admit reports whether the stream may enter, admitting it on first
// sight while capacity lasts. A false return has already counted the
// rejected chunk (and the stream itself, once).
func (a *Admission) Admit(stream uint32) bool {
	a.mu.Lock()
	if _, ok := a.admitted[stream]; ok {
		a.mu.Unlock()
		return true
	}
	if _, ok := a.rejected[stream]; ok {
		a.mu.Unlock()
		a.chunksRej.Inc()
		return false
	}
	if a.max <= 0 || len(a.admitted) < a.max {
		a.admitted[stream] = struct{}{}
		a.mu.Unlock()
		return true
	}
	a.rejected[stream] = struct{}{}
	a.mu.Unlock()
	a.streamsRej.Inc()
	a.chunksRej.Inc()
	return false
}

// Admitted returns the number of distinct admitted streams.
func (a *Admission) Admitted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.admitted)
}

// Rejected returns the number of distinct rejected streams.
func (a *Admission) Rejected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rejected)
}

// creditGate is the per-stream in-flight window. acquire blocks while
// the stream's inflight count is at the credit limit — on the stream's
// own transport read goroutine, which is what makes the backpressure
// per-stream. A nil gate is no credit in force: every method is a
// no-op, so call sites stay uniform.
type creditGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	credit   int
	inflight map[uint32]int
	blocked  int // streams currently waiting in acquire
	closed   bool
	waits    *metrics.Counter
}

// newCreditGate returns nil for credit <= 0.
func newCreditGate(reg *metrics.Registry, credit int) *creditGate {
	if credit <= 0 {
		return nil
	}
	g := &creditGate{
		credit:   credit,
		inflight: make(map[uint32]int),
		waits:    reg.Counter(CtrCreditWaits),
	}
	g.cond = sync.NewCond(&g.mu)
	reg.RegisterGauge(GaugeCreditBlocked, func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.blocked)
	})
	return g
}

func (g *creditGate) acquire(stream uint32) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight[stream] >= g.credit && !g.closed {
		g.waits.Inc()
		g.blocked++
		for g.inflight[stream] >= g.credit && !g.closed {
			g.cond.Wait()
		}
		g.blocked--
	}
	if g.closed {
		return msgq.ErrClosed
	}
	g.inflight[stream]++
	return nil
}

// release tolerates a stream with nothing in flight: a frame queued
// before SetDispatch reaches a worker without having been charged.
func (g *creditGate) release(stream uint32) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if n := g.inflight[stream]; n > 1 {
		g.inflight[stream] = n - 1
	} else {
		delete(g.inflight, stream)
	}
	// Waiters are keyed by stream but share one condition; Broadcast
	// and let them recheck (waiters are rare — a stream out of credit).
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *creditGate) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// lane is one stream's delivery state: its throughput meter and
// sequence accounting, and, with credit in force, its queue. One chunk
// of a stream is delivered at a time — by the lane's goroutine, or inline
// by a stage worker holding mu.
type lane struct {
	mu      sync.Mutex
	q       *queue.Queue[Chunk] // nil: delivery is inline
	meter   *metrics.Meter
	next    uint64 // the sequence number expected next
	tracked bool   // next is known
}

// laneSet owns the per-stream delivery lanes. With credit in force each
// lane is a bounded queue as deep as the credit plus one consumer
// goroutine, so an enqueue past the gate can never block and a Sink that
// stalls parks only its own lane. Without credit (capacity 0) there is no
// queue: the stage worker that finished the chunk delivers it, under the
// lane's mutex, while the chunk is still in its cache — a Sink that
// stalls then holds that worker, the backpressure a full lane would have
// exerted on it anyway.
type laneSet struct {
	mu      sync.Mutex
	lanes   map[uint32]*lane
	wg      sync.WaitGroup
	cap     int
	closed  bool
	reg     *metrics.Registry
	deliver func(l *lane, c Chunk)
}

func newLaneSet(capacity int, reg *metrics.Registry, deliver func(l *lane, c Chunk)) *laneSet {
	return &laneSet{lanes: make(map[uint32]*lane), cap: capacity, reg: reg, deliver: deliver}
}

// enqueue delivers c, or routes it to its stream's lane, creating the
// lane (and its consumer) on first sight. Returns false once the set is
// closed (teardown).
func (ls *laneSet) enqueue(c Chunk) bool {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return false
	}
	l, ok := ls.lanes[c.Stream]
	if !ok {
		// The health scoreboard's throughput series
		// ("delivered_stream_<id>", folded past the registry's stream
		// cap), resolved once per lane: building the name costs an
		// allocation the per-chunk path must not pay.
		l = &lane{meter: ls.reg.StreamMeter("delivered", c.Stream)}
		if ls.cap > 0 {
			l.q = queue.New[Chunk](ls.cap)
			ls.wg.Add(1)
			go func() {
				defer ls.wg.Done()
				for c, err := l.q.Get(); err == nil; c, err = l.q.Get() {
					ls.deliver(l, c)
				}
			}()
		}
		ls.lanes[c.Stream] = l
	}
	ls.mu.Unlock()
	if l.q == nil {
		// Held across the Sink on purpose: the mutex serialises exactly
		// this stream's calls, which is the Sink's contract, and nothing
		// the delivery calls takes it.
		l.mu.Lock()
		ls.deliver(l, c)
		l.mu.Unlock()
		return true
	}
	// Outside the set lock: a Put blocks only while the lane is full,
	// which the credit gate prevents.
	return l.q.Put(c) == nil
}

// closeAll closes every lane and waits for the consumers to drain. It
// follows the last producer's exit, so no inline delivery is running.
func (ls *laneSet) closeAll() {
	ls.mu.Lock()
	ls.closed = true
	for _, l := range ls.lanes {
		if l.q != nil {
			l.q.Close()
		}
	}
	ls.mu.Unlock()
	ls.wg.Wait()
}

// resolveShards turns the option value into a concrete shard count: 0
// is the single inbox, one ring.
func resolveShards(opts ReceiverOptions) int {
	if opts.Shards > 0 {
		return opts.Shards
	}
	if opts.Shards == 0 {
		return 1
	}
	// ShardsAuto: NUMA-domain-aligned, minimum 2 so single-domain test
	// hosts still exercise the multi-shard path.
	n := len(opts.Topo.Nodes)
	if n < 2 {
		n = 2
	}
	return n
}
