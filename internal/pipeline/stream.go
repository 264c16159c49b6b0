package pipeline

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/crc32c"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/numa"
	"numastream/internal/queue"
	"numastream/internal/runtime"
	"numastream/internal/trace"
)

// opTracer records real-mode worker activity as wall-clock trace events
// (the real-execution counterpart of hw.Machine.Tracer).
type opTracer struct {
	tr    *trace.Tracer
	start time.Time
	node  string
}

func newOpTracer(tr *trace.Tracer, node string) *opTracer {
	if tr == nil {
		return nil
	}
	return &opTracer{tr: tr, start: time.Now(), node: node}
}

// span records one operation that began at wall-clock time t0. Each
// span carries the chunk's sequence number, so one chunk's journey —
// compress → queue-wait → send → receive → queue-wait → decompress —
// can be followed across tracks in the Perfetto UI.
func (o *opTracer) span(stage string, worker int, t0 time.Time, bytes int, seq uint64) {
	o.spanFlow(stage, worker, t0, bytes, seq, 0)
}

// spanFlow is span for a stage that terminates a cross-host flow: with a
// nonzero fid the span carries the flow's consuming end, so the viewer
// draws the journey arrow from the sender's wire span into this one.
func (o *opTracer) spanFlow(stage string, worker int, t0 time.Time, bytes int, seq uint64, fid uint64) {
	if o == nil {
		return
	}
	o.tr.Add(trace.Event{
		Name:     stage,
		Category: stage,
		Start:    t0.Sub(o.start).Seconds(),
		Duration: time.Since(t0).Seconds(),
		Process:  o.node,
		Track:    worker,
		Args:     map[string]any{"bytes": bytes, "seq": seq},
		FlowID:   fid,
		FlowIn:   fid != 0,
	})
}

// watchQueue registers live depth, high-water and cumulative blocked-time
// gauges for q, polled at scrape/sample time. Producer (put) and
// consumer (get) blocked time are exposed separately — put-blocked is
// backpressure from a slow consumer, get-blocked is starvation by a slow
// producer, and bottleneck attribution (internal/obs) needs the two
// apart — with the combined series kept for existing dashboards.
func watchQueue[T any](reg *metrics.Registry, name string, q *queue.Queue[T]) {
	reg.RegisterGauge(name+"_depth", func() float64 { return float64(q.Len()) })
	reg.RegisterGauge(name+"_highwater", func() float64 { return float64(q.Stats().MaxDepth) })
	reg.RegisterGauge(name+"_blocked_secs", func() float64 {
		st := q.Stats()
		return (st.PutBlocked + st.GetBlocked).Seconds()
	})
	reg.RegisterGauge(name+"_put_blocked_secs", func() float64 {
		return q.Stats().PutBlocked.Seconds()
	})
	reg.RegisterGauge(name+"_get_blocked_secs", func() float64 {
		return q.Stats().GetBlocked.Seconds()
	})
}

// Real-execution streaming: the same NodeConfig that drives the
// simulated experiments runs here on goroutine pools over TCP. A sender
// node compresses chunks and pushes them; a receiver node pulls,
// decompresses and delivers to a sink (Figure 2's {C}/{S}/{R}/{D}).

// Chunk is one unit of streaming data in flight.
type Chunk struct {
	Seq    uint64
	Stream uint32 // stream id; a gateway serves several senders (Fig 13)
	Data   []byte // current payload: raw or LZ4 block
	RawLen int    // uncompressed length of the original chunk
	Packed bool   // Data is an LZ4 block
	// Shuffled: the LZ4 block in Data holds the chunk's bit-planes
	// (internal/bitshuffle), not its samples. Set only with Packed, between
	// the compress and decompress stages; a receiver without a decompress
	// stage hands it to the Sink with the block.
	Shuffled bool
	// Peer, set on the receive path, is the advertised label (or remote
	// address) of the connection the chunk arrived on — which relay or
	// sender delivered it. Churn drills use it to attribute deliveries
	// across failovers; empty on the send path.
	Peer string

	// crc is the sender-side CRC-32C of Data as it will travel the wire,
	// set together with Data by the stage that produced those bytes (the
	// compress worker, or the feeder when there is no compress stage)
	// while they are in its cache; the send worker only copies it into
	// the header. Unused on the receive path.
	crc uint32

	// enqAt is stamped just before the chunk enters an inter-stage
	// queue; the consuming stage turns it into a queue-wait observation.
	enqAt time.Time

	// wire is the sender-side trace context under construction, stamped
	// at each stage boundary and shipped as the frame's aux part. Nil
	// unless SenderOptions.WireTrace is on.
	wire *wireCtx
	// journey is the receiver-side record of a frame that arrived with
	// a trace context; closed out by the journeyRecorder at delivery.
	journey *chunkJourney

	// lease is the pooled buffer backing Data, when Data was rented
	// from a bufpool (compressed block on the sender, decompressed
	// output on the receiver). The stage that finishes with Data
	// releases it. Nil whenever Data is caller- or GC-owned.
	lease *bufpool.Buf
	// frame is the transport frame whose pooled part buffers back Data
	// on the receive path; released after the payload's last read.
	frame *msgq.Frame
}

// message header:
//
//	seq uint64 | rawLen uint32 | stream uint32 | flags uint8 | crc uint32
//
// flags is 0 (raw payload of rawLen bytes), flagPacked (an LZ4 block) or
// flagPacked|flagShuffled (an LZ4 block of the chunk's bit-planes); a
// receiver quarantines any other value, and a raw payload of any other
// length than rawLen.
//
// crc is a CRC-32C (Castagnoli) over the payload part as it travels the
// wire (the LZ4 block when packed) — and, for a bitshuffled frame, over
// the flags byte after it (wireCRC). The WAN path the paper streams over
// flips bits for real; TCP's 16-bit checksum misses enough of them at
// 100 Gbps rates that a payload CRC is the difference between a
// quarantined chunk and a silently corrupt projection. The sender takes
// it where the wire bytes are produced (Chunk.crc), not where they are
// written, so it also covers the chunk's stay in the send queue.
const (
	headerLen    = 21
	flagsAt      = 16
	flagPacked   = 1
	flagShuffled = 2
)

// shuffledFlags is the one flags byte a bitshuffled frame carries, as
// the trailer its CRC covers.
var shuffledFlags = [1]byte{flagPacked | flagShuffled}

// wireCRC is the header CRC of a frame with this payload and these
// (valid) flags: the payload's CRC-32C, extended over the flags byte for
// a bitshuffled frame. A receiver that predates the filter sums the
// payload alone, so it quarantines a bitshuffled frame instead of
// delivering bit-planes as samples, while raw and plain LZ4 frames keep
// the sum they always had and interoperate both ways.
func wireCRC(payload []byte, flags uint8) uint32 {
	sum := crc32c.Checksum(payload)
	if flags&flagShuffled != 0 {
		sum = crc32c.Update(sum, shuffledFlags[:])
	}
	return sum
}

// flags is the header flags byte describing c's payload.
func (c Chunk) flags() uint8 {
	var f uint8
	if c.Packed {
		f |= flagPacked
	}
	if c.Shuffled {
		f |= flagShuffled
	}
	return f
}

// encodeHeaderInto fills a caller-owned (typically stack) header array
// — the send worker's per-frame path, which must not allocate.
func encodeHeaderInto(h *[headerLen]byte, c Chunk, crc uint32) {
	binary.LittleEndian.PutUint64(h[0:], c.Seq)
	binary.LittleEndian.PutUint32(h[8:], uint32(c.RawLen))
	binary.LittleEndian.PutUint32(h[12:], c.Stream)
	h[flagsAt] = c.flags()
	binary.LittleEndian.PutUint32(h[17:], crc)
}

func encodeHeader(c Chunk, crc uint32) []byte {
	var h [headerLen]byte
	encodeHeaderInto(&h, c, crc)
	return h[:]
}

// parseFrame is the one test of a chunk frame's shape — two parts, the
// first a decodable header — and returns the header's chunk fields and
// payload CRC. The receiver's dispatch hook, its receive workers and the
// forwarder's intake all call it, and the first two must agree exactly:
// dispatch charges a stream's credit only for a frame that passes, and a
// receive worker gives credit back only for a frame that passes, so a
// frame judged differently in the two places leaks or invents credit.
func parseFrame(msg msgq.Message) (Chunk, uint32, error) {
	if len(msg) != 2 {
		return Chunk{}, 0, fmt.Errorf("pipeline: message with %d parts", len(msg))
	}
	return decodeHeader(msg[0])
}

func decodeHeader(h []byte) (Chunk, uint32, error) {
	if len(h) != headerLen {
		return Chunk{}, 0, fmt.Errorf("pipeline: header of %d bytes", len(h))
	}
	return Chunk{
		Seq:      binary.LittleEndian.Uint64(h[0:]),
		RawLen:   int(binary.LittleEndian.Uint32(h[8:])),
		Stream:   binary.LittleEndian.Uint32(h[12:]),
		Packed:   h[flagsAt]&flagPacked != 0,
		Shuffled: h[flagsAt]&flagShuffled != 0,
	}, binary.LittleEndian.Uint32(h[17:]), nil
}

// maxExpansion is the most raw bytes an LZ4 block can decode to per
// block byte: a match-length extension byte adds at most 255.
const maxExpansion = 255

// verifyPayload is the receive worker's test of a frame parseFrame has
// passed (so dispatch took credit for it): flags it knows, a raw payload
// exactly RawLen long, a packed one that could decode to RawLen bytes,
// and the header CRC. A frame that fails is quarantined, never delivered
// — an unknown flag could mean any encoding — and before the decompress
// stage rents a RawLen-byte buffer for it.
func verifyPayload(msg msgq.Message, c Chunk, want uint32) error {
	switch flags := msg[0][flagsAt]; {
	case flags != 0 && flags != flagPacked && flags != flagPacked|flagShuffled:
		return fmt.Errorf("pipeline: chunk %d header flags %#02x", c.Seq, flags)
	case !c.Packed && len(msg[1]) != c.RawLen:
		return fmt.Errorf("pipeline: raw chunk %d has %d payload bytes, header says %d", c.Seq, len(msg[1]), c.RawLen)
	case c.Packed && c.RawLen > maxExpansion*len(msg[1]):
		return fmt.Errorf("pipeline: packed chunk %d of %d bytes cannot decode to the %d its header says", c.Seq, len(msg[1]), c.RawLen)
	}
	if sum := wireCRC(msg[1], c.flags()); sum != want {
		return fmt.Errorf("pipeline: chunk %d payload CRC %08x, want %08x", c.Seq, sum, want)
	}
	return nil
}

// SenderOptions configures RunSender.
type SenderOptions struct {
	Cfg  runtime.NodeConfig
	Topo numa.HostTopology
	// Peers are receiver PULL addresses to connect to.
	Peers []string
	// Source yields successive raw chunks; nil ends the stream. A yielded
	// buffer must keep its bytes until its chunk has been sent: an
	// uncompressed chunk travels from that buffer, and its CRC is taken
	// before the send queue (by the feeder, or by the compress worker that
	// found it incompressible), so a buffer rewritten while its chunk is
	// still queued arrives as a CRC mismatch and is quarantined.
	Source func() []byte
	// StreamID tags every chunk so a gateway serving several senders
	// can separate them (Figure 13's four concurrent streams).
	StreamID uint32
	// Metrics, when non-nil, receives "compress" and "send" meters plus
	// the msgq failure counters (reconnects, resends, timeouts).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-worker operation spans.
	Tracer *trace.Tracer
	// QueueCap bounds the inter-stage queues (default 16).
	QueueCap int
	// SendHorizon bounds how long a send worker blocks while every
	// peer is dead before the sender fails (0 = block until the stream
	// is torn down — the legacy behaviour).
	SendHorizon time.Duration
	// WriteTimeout is the per-message write deadline (0 = none); a
	// stalled peer costs one timeout instead of a wedged worker.
	WriteTimeout time.Duration
	// Dial overrides the transport dialer — the hook fault plans
	// (faults.Injector.Dialer) attach to.
	Dial func(addr string) (net.Conn, error)
	// WireTrace ships a per-chunk trace context (identity + stage
	// timestamps) as each frame's auxiliary part, letting the receiver
	// stitch cross-host chunk journeys. Off, the hot path is unchanged:
	// no stamping, no aux framing.
	WireTrace bool
	// BufPool overrides the buffer pool the compress workers rent their
	// scratch from; nil uses the process-wide bufpool.Default(). Tests
	// pass a private pool so they can assert its leak accounting.
	BufPool *bufpool.Pool
	// Controls, when non-nil, receives this run's stage pools so the
	// adaptive placement controller can Grow/Shrink/re-pin them live.
	// Nil costs nothing on the chunk path.
	Controls *Controls
}

// effectivePool resolves the pool an options struct asks for: the
// explicit pool when set, the process default otherwise.
func effectivePool(explicit *bufpool.Pool) *bufpool.Pool {
	if explicit != nil {
		return explicit
	}
	return bufpool.Default()
}

// RunSender streams chunks from Source through the configured
// compression and send pools until Source is exhausted, then returns.
func RunSender(opts SenderOptions) error {
	if err := opts.Cfg.Validate(len(opts.Topo.Nodes)); err != nil {
		return err
	}
	if opts.Cfg.Role != runtime.Sender {
		return fmt.Errorf("pipeline: RunSender with role %q", opts.Cfg.Role)
	}
	if len(opts.Peers) == 0 {
		return fmt.Errorf("pipeline: sender has no peers")
	}
	if opts.Source == nil {
		return fmt.Errorf("pipeline: sender has no source")
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	pool := effectivePool(opts.BufPool)
	pool.Register(opts.Metrics)

	sendGroup, _ := opts.Cfg.Group(runtime.Send)
	if sendGroup.Count < 1 {
		return fmt.Errorf("pipeline: sender config has no send threads")
	}
	n := &node{topo: opts.Topo, reg: opts.Metrics, trc: newOpTracer(opts.Tracer, opts.Cfg.Node), ctl: opts.Controls}
	snd, err := n.place("send", sendGroup)
	if err != nil {
		return err
	}
	var comp stage
	if g, _ := opts.Cfg.Group(runtime.Compress); g.Count > 0 {
		if comp, err = n.place("compress", g); err != nil {
			return err
		}
	}

	push := msgq.NewPush()
	push.SendHorizon = opts.SendHorizon
	push.WriteTimeout = opts.WriteTimeout
	push.Dial = opts.Dial
	push.Counters = opts.Metrics
	push.Label = opts.Cfg.Node
	// Failover accounting: each downstream (relay or gateway) connection
	// lost mid-stream is a failover the transport rides out by retrying
	// on survivors and redialing. Counted here on the sender because the
	// sender is the one whose chunks get diverted.
	failoverCtr := opts.Metrics.Counter(CtrRelayFailovers)
	failoverStreamCtr := opts.Metrics.StreamCounter("relay_failovers", opts.StreamID)
	push.OnPeerDown = func(string) {
		failoverCtr.Inc()
		failoverStreamCtr.Inc()
	}
	defer push.Close()
	// unstarted is the number of chunks the Source has yielded that no
	// send worker has begun writing, plus one until the Source is
	// exhausted. The worker that takes it to zero holds the stream's last
	// unwritten chunk and tells the socket so before writing it: a
	// receiver that closes after its last expected chunk routinely beats
	// the deferred Close above (its FIN can even overtake the writer's
	// return from the syscall), and a peer that leaves a stream with
	// nothing left to divert is neither a failover nor a msgq_conn_drops
	// churn event. The rule counts writes started, not writes returned, so
	// with n send workers up to n-1 earlier chunks can still be mid-write
	// when it fires: a peer that really dies inside that window is retried
	// and redialed as always (msgq_resends, msgq_redials) but not counted
	// as a failover. Counting returns instead would close the window and
	// reopen the race — the worker whose return mutes the socket can be
	// descheduled past the receiver's FIN.
	var unstarted atomic.Int64
	unstarted.Store(1)
	started := func() {
		if unstarted.Add(-1) == 0 {
			push.Finishing()
		}
	}
	for _, peer := range opts.Peers {
		push.Connect(peer)
	}

	sendQ := queue.New[Chunk](opts.QueueCap)
	watchQueue(opts.Metrics, "sendq", sendQ)
	var compQ *queue.Queue[Chunk]

	// Source feeder.
	feedTo := sendQ
	if comp.workers > 0 {
		compQ = queue.New[Chunk](opts.QueueCap)
		watchQueue(opts.Metrics, "compq", compQ)
		feedTo = compQ
	}
	// A failing worker stops the Source: closing the feeder's queue ends
	// the feeder at its next Put, while what is already queued drains.
	n.abort = feedTo.Close
	// With no compress stage the Source's buffer is the wire payload and
	// the feeder is the stage that sums it. Its time gets a histogram of
	// its own rather than a stage: the feeder is not a pool obs could
	// name, and a feeder too slow to keep the send workers fed already
	// reads as sendq get-blocked time.
	var sumHist *metrics.Histogram
	if compQ == nil {
		sumHist = opts.Metrics.Histogram("source_crc_ns")
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer feedTo.Close()
		var seq uint64
		for {
			raw := opts.Source()
			if raw == nil {
				started()
				return
			}
			unstarted.Add(1)
			c := Chunk{Seq: seq, Stream: opts.StreamID, Data: raw, RawLen: len(raw)}
			if opts.WireTrace {
				c.wire = &wireCtx{Version: wireCtxVersion, Seq: c.Seq, Stream: c.Stream}
			}
			seq++
			if compQ == nil {
				t0 := time.Now()
				c.crc = wireCRC(raw, 0)
				sumHist.ObserveDuration(time.Since(t0))
				if c.wire != nil {
					// The feeder's Put is the send-queue entry.
					c.wire.Enqueue = trace.NowNanos()
				}
			}
			// Stamped after the sum, so queue wait stays queue time.
			c.enqAt = time.Now()
			if err := feedTo.Put(c); err != nil {
				return
			}
		}
	}()

	if compQ != nil {
		// The last compress worker out — grown, retired or drained —
		// closes the send queue.
		start(n, comp, sendQ.Close, func(w *Worker, obs *stageObserver) stageLoop[Chunk, Chunk] {
			// The worker's codec state (codec.go): output buffers rented
			// on its domain, its bit-plane scratch, its filter decision.
			z := newCompressor(opts, pool, w.Domain())
			return stageLoop[Chunk, Chunk]{
				next: fromQueue(compQ, obs, w.ID()),
				work: func(c Chunk) (Chunk, result, error) {
					if c.wire != nil {
						c.wire.CompressStart = trace.NowNanos()
					}
					err := z.compress(&c)
					return c, result{bytes: c.RawLen, seq: c.Seq}, err
				},
				emit: func(c Chunk) bool {
					if c.wire != nil {
						now := trace.NowNanos()
						c.wire.CompressEnd = now
						c.wire.Enqueue = now
					}
					c.enqAt = time.Now()
					if sendQ.Put(c) != nil {
						c.lease.Release() // send stage gone; don't strand it
						return false
					}
					return true
				},
				close: z.close,
			}
		})
	}

	// All send workers are gone. On a failure exit (dead peers past the
	// horizon) compress workers may be blocked in sendQ.Put, and RunSender
	// waits on the compress pool before it closes anything — close the
	// queue here so the abort drains instead of wedging. Idempotent on the
	// normal path, where sendQ is already closed.
	start(n, snd, sendQ.Close, func(w *Worker, obs *stageObserver) stageLoop[Chunk, Chunk] {
		// Per-worker frame scratch: the 21-byte header and the two-part
		// message shell are reused — with the vectored writer downstream
		// the steady-state send path allocates nothing per chunk.
		var hdr [headerLen]byte
		msg := msgq.Message{nil, nil}
		return stageLoop[Chunk, Chunk]{
			next: fromQueue(sendQ, obs, w.ID()),
			work: func(c Chunk) (Chunk, result, error) {
				started()
				if c.wire != nil {
					c.wire.Dequeue = trace.NowNanos()
				}
				encodeHeaderInto(&hdr, c, c.crc)
				msg[0], msg[1] = hdr[:], c.Data
				var err error
				if c.wire != nil {
					c.wire.Send = trace.NowNanos()
					err = push.SendTagged(msg, encodeWireCtx(*c.wire))
				} else {
					err = push.Send(msg)
				}
				// The compressed block was copied to the wire (or the send
				// failed terminally); either way its lease is done.
				c.lease.Release()
				msg[1] = nil
				if err != nil {
					return c, result{}, fmt.Errorf("sending chunk %d: %w", c.Seq, err)
				}
				return c, result{bytes: len(c.Data), seq: c.Seq}, nil
			},
		}
	})

	err = n.wait()
	// Unblock a feeder still waiting on a full queue after a worker
	// failure, and let it finish: the Source is not called once RunSender
	// has returned. A failure also leaves compressed chunks behind in the
	// send queue (closed by now); their leases go home here.
	feedTo.Close()
	<-fed
	for c, qerr := sendQ.Get(); qerr == nil; c, qerr = sendQ.Get() {
		c.lease.Release()
	}
	return err
}

// ReceiverOptions configures RunReceiver.
type ReceiverOptions struct {
	Cfg  runtime.NodeConfig
	Topo numa.HostTopology
	// Bind is the PULL listen address ("127.0.0.1:0" for tests).
	Bind string
	// Expect is the number of chunks after which the receiver stops.
	// With Expect <= 0 the receiver serves until Stop is closed.
	Expect int
	// Stop, when non-nil, ends an open-ended receiver: intake closes,
	// in-flight chunks drain, RunReceiver returns.
	Stop <-chan struct{}
	// Sink receives each delivered (decompressed) chunk; nil discards.
	// Chunks of one stream arrive one call at a time; calls for different
	// streams run concurrently. With credit in force (StreamCredit, or
	// Shards set) each stream's calls run on its delivery lane, an
	// unpinned goroutine; without, on the stage worker that finished the
	// chunk (the decompress worker, or the receive worker when there is
	// no decompress stage), which waits for the Sink to return.
	Sink func(Chunk) error
	// Metrics, when non-nil, receives "receive" and "decompress"
	// meters plus the failure counters (CtrQuarantined, CtrSeqGaps,
	// CtrSeqLate).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-worker operation spans.
	Tracer *trace.Tracer
	// QueueCap bounds the inter-stage queues (default 16).
	QueueCap int
	// Ready, when non-nil, receives the bound address once listening;
	// the send is abandoned when Stop fires first.
	Ready chan<- string
	// FailHard restores the legacy all-or-nothing behaviour: any
	// malformed message or corrupt chunk aborts the whole node. The
	// default is quarantine-and-count — a corrupt chunk is dropped,
	// counted (CtrQuarantined) and the stream keeps flowing, because on
	// a real WAN path one flipped bit must not kill a 200 Gbps stream.
	FailHard bool
	// MaxBadChunks aborts the receiver once more than this many chunks
	// have been quarantined (0 = no limit). It bounds how long a
	// systematically corrupting peer can burn receiver cycles.
	MaxBadChunks int
	// Listener, when non-nil, overrides Bind with an existing listener
	// (fault-wrapped listeners; the receiver takes ownership).
	Listener net.Listener
	// ExactlyOnce turns on the exactly-once accounting ledger: each
	// (stream, seq) pair is delivered to the Sink at most once, repeats
	// are counted (CtrDupDrops) and dropped. Off, the hot path is
	// untouched — at-least-once, as before.
	ExactlyOnce bool
	// Ledger, when non-nil (implies ExactlyOnce), is the accounting
	// ledger to use — pass one in to keep dedup state across receiver
	// passes and to inspect Holes()/Delivered() after the run. Nil with
	// ExactlyOnce set builds a private ledger over Metrics. A ledger
	// shared with a later pass wants Stop, or an Expect no smaller than
	// what is sent: chunks racing for the last Expect slot are recorded
	// and then dropped.
	Ledger *Ledger
	// BufPool overrides the buffer pool backing frame receives and
	// decompression output; nil uses bufpool.Default().
	//
	// The Data slice a Sink receives is pooled memory that is recycled
	// as soon as the Sink returns — a Sink that wants to keep the bytes
	// must copy them during the call (every Sink in this repo already
	// does).
	BufPool *bufpool.Pool

	// Shards is the number of receive queues the intake spreads streams
	// over by stream hash (see gateway.go): 0 is a single inbox; > 0 is
	// an explicit shard count; ShardsAuto aligns it with the host's NUMA
	// domains.
	Shards int
	// MaxStreams is the admission limit: at most this many distinct
	// streams are ever admitted; later streams are rejected at dispatch
	// and counted (CtrStreamsRejected, CtrChunksRejected). 0 means
	// unlimited.
	MaxStreams int
	// StreamCredit is each stream's in-flight chunk window past
	// dispatch. A stream at its limit blocks only its own connection —
	// per-stream backpressure. 0 means DefaultStreamCredit when Shards
	// is set and no credit gate on a single inbox, where the bounded
	// queues alone push back.
	StreamCredit int
	// Controls, when non-nil, receives this run's stage pools so the
	// adaptive placement controller can Grow/Shrink/re-pin them live.
	Controls *Controls
}

// Receiver-side failure counters recorded in ReceiverOptions.Metrics.
const (
	// CtrQuarantined counts chunks dropped instead of delivered:
	// malformed message shape, undecodable header, payload CRC
	// mismatch, or decompression failure.
	CtrQuarantined = "chunks_quarantined"
	// CtrSeqGaps counts sequence numbers skipped between consecutive
	// delivered chunks of a stream — chunks lost or quarantined
	// upstream of delivery.
	CtrSeqGaps = "seq_gaps"
	// CtrSeqLate counts chunks that arrived with a sequence number
	// below the stream's high-water mark (reordered or duplicated).
	CtrSeqLate = "seq_late"
	// CtrRelayFailovers counts downstream connections a sender lost
	// mid-stream (relay or gateway deaths the transport failed over
	// from). Recorded in SenderOptions.Metrics, with a per-stream
	// variant "relay_failovers_stream_<id>".
	CtrRelayFailovers = "relay_failovers"
)

// RunReceiver accepts chunks until Expect have been accounted for
// (delivered or quarantined) or Stop closes, drains what is in flight,
// and returns.
//
// Intake is the transport's dispatch hook (header peek → Admission →
// credit gate → ShardHash) feeding per-shard rings; receive and
// decompress workers are the configured pools; delivery runs on one
// lane per stream (see gateway.go for all three). A single inbox is the
// one-shard, no-credit case of the same path.
func RunReceiver(opts ReceiverOptions) error {
	if err := opts.Cfg.Validate(len(opts.Topo.Nodes)); err != nil {
		return err
	}
	if opts.Cfg.Role != runtime.Receiver {
		return fmt.Errorf("pipeline: RunReceiver with role %q", opts.Cfg.Role)
	}
	if opts.Expect <= 0 && opts.Stop == nil {
		return fmt.Errorf("pipeline: receiver needs a positive Expect count or a Stop channel")
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	shards := resolveShards(opts)
	credit := opts.StreamCredit
	if credit <= 0 && opts.Shards != 0 {
		credit = DefaultStreamCredit
	}
	// With credit in force a lane as deep as the credit never blocks its
	// producer; without, there is no lane queue and the stage worker
	// delivers inline, so a slow Sink holds the decompress stage back.
	laneCap := max(credit, 0)
	pool := effectivePool(opts.BufPool)
	pool.Register(opts.Metrics)

	recvGroup, _ := opts.Cfg.Group(runtime.Receive)
	if recvGroup.Count < 1 {
		return fmt.Errorf("pipeline: receiver config has no receive threads")
	}
	n := &node{topo: opts.Topo, reg: opts.Metrics, trc: newOpTracer(opts.Tracer, opts.Cfg.Node), ctl: opts.Controls}
	recv, err := n.place("receive", recvGroup)
	if err != nil {
		return err
	}
	var dec stage
	if g, _ := opts.Cfg.Group(runtime.Decompress); g.Count > 0 {
		if dec, err = n.place("decompress", g); err != nil {
			return err
		}
	}

	var pull *msgq.Pull
	if opts.Listener != nil {
		pull = msgq.NewPullFromListener(opts.Listener)
	} else {
		pull, err = msgq.NewPull(opts.Bind)
		if err != nil {
			return err
		}
	}
	defer pull.Close()
	pull.SetLabel(opts.Cfg.Node)
	// Frame buffers are rented on behalf of the receive workers' domain:
	// the read loop does the first touch, but the pages are recycled
	// within the domain that consumes them.
	pull.SetBufferPool(pool, recv.pin.DomainFor(0))

	adm := NewAdmission(opts.Metrics, opts.MaxStreams)
	gate := newCreditGate(opts.Metrics, credit)
	// Dispatch runs on each connection's read goroutine: peek the
	// header, admit, take credit, route by stream hash. A frame of the
	// wrong shape (parseFrame) passes through uncredited and is
	// quarantined by a receive worker.
	pull.SetDispatch(shards, shardRingDepth, func(d *msgq.Delivery) (int, bool) {
		c, _, err := parseFrame(d.Msg)
		if err != nil {
			return 0, true
		}
		if !adm.Admit(c.Stream) {
			return 0, false
		}
		if gate.acquire(c.Stream) != nil {
			return 0, false // tearing down
		}
		return ShardHash(c.Stream, shards), true
	})
	for i := 0; i < shards; i++ {
		i := i
		opts.Metrics.RegisterGauge(fmt.Sprintf("shard_%d_depth", i),
			func() float64 { return float64(pull.ShardDepth(i)) })
	}
	if opts.Ready != nil {
		// A caller that has already closed Stop may never read Ready.
		select {
		case opts.Ready <- pull.Addr().String():
		case <-opts.Stop:
		}
	}

	journeys := newJourneyRecorder(opts.Metrics, n.trc)
	var decQ *queue.Queue[Chunk]
	if dec.workers > 0 {
		decQ = queue.New[Chunk](opts.QueueCap)
		watchQueue(opts.Metrics, "decq", decQ)
	}

	quarantinedCtr := opts.Metrics.Counter(CtrQuarantined)
	gapCtr := opts.Metrics.Counter(CtrSeqGaps)
	lateCtr := opts.Metrics.Counter(CtrSeqLate)
	ledger := opts.Ledger
	if ledger == nil && opts.ExactlyOnce {
		ledger = NewLedger(opts.Metrics, 0)
	}

	// Accounting: atomics, not a shared mutex — a thousand delivery lanes
	// must not serialize. A chunk is accounted once it is delivered or
	// quarantined, and with Expect set the receiver is done when Expect
	// chunks are: a quarantined chunk must not leave the node waiting
	// forever for a delivery that can never happen.
	var accounted, quarantined atomic.Int64
	expect := int64(opts.Expect)
	done := make(chan struct{})
	var doneOnce sync.Once
	markDone := func() { doneOnce.Do(func() { close(done) }) }
	expectMet := func(n int64) bool { return expect > 0 && n >= expect }
	// reserve claims one of the Expect accounting slots before the Sink
	// call, so that N lanes racing for the last slot hand the Sink
	// exactly Expect chunks. Without Expect every claim succeeds.
	reserve := func() bool {
		for {
			n := accounted.Load()
			if expectMet(n) {
				return false
			}
			if accounted.CompareAndSwap(n, n+1) {
				return true
			}
		}
	}
	// dispose hands back what a chunk past dispatch holds: the
	// decompressed lease, the wire frame still backing a chunk that
	// traveled raw (both nil-safe), and the stream's credit.
	dispose := func(c Chunk) {
		c.lease.Release()
		c.frame.Release()
		gate.release(c.Stream)
	}

	// A failing worker or lane must stop the intake too, or healthy
	// workers would wait forever on a stream that can no longer complete.
	// It must also close decQ: pull.Close only wakes workers blocked in
	// RecvSharded, so without this a receive worker parked in decQ.Put on
	// a full queue would wedge forever when the decompress stage aborts
	// (FailHard, MaxBadChunks, a Sink error) — exactly the corrupt-peer
	// scenario the thresholds are meant to bound. The clean path never
	// comes through here, so drain-on-success is unaffected: there decQ
	// closes only after the last receive worker exits. Once aborted, the
	// lanes stop calling the Sink and only hand leases and credit back.
	// failStop is the node's abort path: a stage worker's error reaches
	// it through the kit, a Sink error from its lane.
	var aborted atomic.Bool
	failStop := func() {
		aborted.Store(true)
		markDone()
		if decQ != nil {
			decQ.Close()
		}
	}
	n.abort = failStop
	// quarantine disposes of a chunk that cannot be delivered; credited
	// says whether dispatch charged the stream's credit for it (decodable
	// header), which must be given back on every disposal path. The
	// returned error is errSkip in quarantine mode (count and continue)
	// and the original cause under FailHard or past the MaxBadChunks
	// threshold, which ends the worker and aborts the node.
	quarantine := func(cause error, credited bool, stream uint32) error {
		if credited {
			gate.release(stream)
		}
		if opts.FailHard {
			return cause
		}
		quarantinedCtr.Inc()
		bad := quarantined.Add(1)
		total := accounted.Add(1)
		if opts.MaxBadChunks > 0 && bad > int64(opts.MaxBadChunks) {
			return fmt.Errorf("pipeline: %d chunks quarantined exceeds MaxBadChunks %d; last cause: %w",
				bad, opts.MaxBadChunks, cause)
		}
		if expectMet(total) {
			markDone()
		}
		return errSkip
	}

	// Delivery of one chunk on its stream's lane: ledger admission, Sink,
	// sequence and throughput accounting, credit release. The lane runs
	// one call at a time, so none of it needs a lock shared between
	// streams.
	var laneErrOnce sync.Once
	var laneErr error
	deliver := func(l *lane, c Chunk) {
		// Dropped before the Sink: anything after an abort or once
		// Expect is met, and a repeat of an already-delivered (stream,
		// seq), which the ledger counts; a repeat takes no Expect slot
		// and leaves the seq-gap accounting alone. The ledger is asked
		// before the slot is reserved: a repeat holding the last slot
		// even briefly would get a first arrival on another lane dropped
		// and Expect never met. The price: a lane that loses the race for
		// the last slot has already recorded its chunk, so up to lanes-1
		// chunks beyond Expect read as delivered though no Sink saw them.
		ok := !aborted.Load() && !expectMet(accounted.Load()) &&
			(ledger == nil || ledger.Admit(c.Stream, c.Seq)) &&
			reserve()
		if ok && opts.Sink != nil {
			if err := opts.Sink(c); err != nil {
				laneErrOnce.Do(func() { laneErr = err })
				failStop()
				ok = false
			}
		}
		if ok {
			l.meter.Add(len(c.Data))
			// Sequence-gap accounting: a jump past the stream's expected
			// sequence means chunks were lost or quarantined on the way;
			// a regression is a late (reordered or duplicate) arrival.
			// With several decompress workers minor reordering shows up
			// as late counts, not data loss.
			switch {
			case !l.tracked && c.Seq == 0, l.tracked && c.Seq == l.next:
				l.next, l.tracked = c.Seq+1, true
			case !l.tracked || c.Seq > l.next:
				if l.tracked {
					gapCtr.Add(int64(c.Seq - l.next))
				} else {
					gapCtr.Add(int64(c.Seq))
				}
				l.next, l.tracked = c.Seq+1, true
			default:
				lateCtr.Inc()
			}
			if expectMet(accounted.Load()) {
				markDone()
			}
			journeys.finish(c.journey, trace.NowNanos())
		}
		// The Sink has returned (and copied anything it keeps).
		dispose(c)
	}
	lanes := newLaneSet(laneCap, opts.Metrics, deliver)

	// toLane hands a verified chunk to its delivery lane. The set only
	// refuses after closeAll, which follows the last producer's exit;
	// dispose anyway so nothing leaks if that ordering ever changes.
	toLane := func(c Chunk) bool {
		if !lanes.enqueue(c) {
			dispose(c)
		}
		return true
	}

	// The receive stage verifies each frame and hands the chunk to the
	// decompress stage, or straight to its lane when there is none. The
	// last receive worker out closes the decompress queue, so chunks
	// already pulled off the wire drain through.
	handOn := toLane
	var recvDrained func()
	if decQ != nil {
		recvDrained = decQ.Close
		handOn = func(c Chunk) bool {
			c.enqAt = time.Now()
			if decQ.Put(c) != nil {
				dispose(c) // decompress stage gone
				return false
			}
			return true
		}
	}
	// The verify's time, the receive-side twin of the sender's
	// source_crc_ns: the integrity layer measured at both ends.
	verifyHist := opts.Metrics.Histogram("verify_crc_ns")
	receive := func(d msgq.Delivery) (Chunk, result, error) {
		msg := d.Msg
		// Every exit must release d.Frame exactly once: on quarantine it
		// is released here; once it becomes c.frame, the stage that
		// finishes with the payload releases it.
		c, wantCRC, err := parseFrame(msg)
		if err != nil {
			d.Frame.Release()
			return c, result{}, quarantine(err, false, 0)
		}
		t0 := time.Now()
		err = verifyPayload(msg, c, wantCRC)
		verifyHist.ObserveDuration(time.Since(t0))
		if err != nil {
			d.Frame.Release()
			return c, result{}, quarantine(err, true, c.Stream)
		}
		c.Data = msg[1]
		c.frame = d.Frame
		c.Peer = d.Peer
		r := result{bytes: len(c.Data), seq: c.Seq}
		// A wire trace context is advisory: a frame whose aux part fails
		// to decode (or describes a different chunk) still delivers —
		// only the journey is lost.
		if len(d.Aux) > 0 {
			if wc, err := decodeWireCtx(d.Aux); err != nil || wc.Seq != c.Seq || wc.Stream != c.Stream {
				journeys.badCtx.Inc()
			} else {
				c.journey = &chunkJourney{
					ctx:       wc,
					recvNanos: d.RecvNanos,
					offset:    d.ClockOffset,
					peer:      d.Peer,
				}
				r.flow = flowID(c.Stream, c.Seq)
			}
		}
		return c, r, nil
	}
	start(n, recv, recvDrained, func(w *Worker, _ *stageObserver) stageLoop[msgq.Delivery, Chunk] {
		cur := msgq.NewShardCursor(w.ID())
		return stageLoop[msgq.Delivery, Chunk]{
			next: func() (msgq.Delivery, error) { return pull.RecvSharded(cur) },
			work: receive,
			emit: handOn,
		}
	})

	if decQ != nil {
		start(n, dec, nil, func(w *Worker, obs *stageObserver) stageLoop[Chunk, Chunk] {
			dom := w.Domain()
			planes := &leaseScratch{pool: pool, dom: dom}
			return stageLoop[Chunk, Chunk]{
				next: fromQueue(decQ, obs, w.ID()),
				work: func(c Chunk) (Chunk, result, error) {
					if c.Packed {
						// The output lease lives on this worker's domain —
						// the paper's split-domain placement (Obs. 3)
						// decompresses on the far domain, and the output
						// pages should live there, not where the wire frame
						// landed.
						derr := decompress(&c, pool, dom, planes)
						// The wire frame backed only the compressed block;
						// it is done the moment the block is unpacked (or
						// found to be garbage).
						c.frame.Release()
						c.frame = nil
						if derr != nil {
							c.lease.Release()
							return c, result{}, quarantine(fmt.Errorf("decompressing chunk %d: %w", c.Seq, derr), true, c.Stream)
						}
					}
					return c, result{bytes: c.RawLen, seq: c.Seq}, nil
				},
				emit:  toLane,
				close: planes.release,
			}
		})
	}

	// Stop the intake once the expected chunks have been accounted for,
	// Stop closes, or a stage aborts. The gate unblocks first (dispatchers
	// parked on credit must fail out before the transport can drain its
	// read loops), then the transport, which wakes workers waiting in
	// RecvSharded. The decompress queue stays open so chunks already
	// pulled off the wire drain through decompress and delivery (graceful
	// drain): the receive workers close it once the last of them exits
	// (on an abort, failStop closes it immediately instead).
	intakeClosed := make(chan struct{})
	go func() {
		defer close(intakeClosed)
		select {
		case <-done:
		case <-opts.Stop:
		}
		gate.close()
		pull.Close()
	}()

	firstErr := n.wait()
	markDone()
	<-intakeClosed
	// An abort leaves chunks behind in the queues the exited workers
	// served; nothing will consume them now, so their frames go home
	// here. Lanes close only after every producer has exited.
	if decQ != nil {
		for c, err := decQ.Get(); err == nil; c, err = decQ.Get() {
			dispose(c)
		}
	}
	cur := msgq.NewShardCursor(0)
	for d, err := pull.RecvSharded(cur); err == nil; d, err = pull.RecvSharded(cur) {
		d.Frame.Release()
	}
	lanes.closeAll()
	if firstErr == nil {
		firstErr = laneErr
	}
	if firstErr != nil {
		return firstErr
	}
	if n, bad := accounted.Load(), quarantined.Load(); expect > 0 && n < expect {
		return fmt.Errorf("pipeline: accounted for %d of %d expected chunks (%d delivered, %d quarantined)",
			n, expect, n-bad, bad)
	}
	return nil
}
