package pipeline

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/trace"
)

// Cross-host chunk-journey tracing. With SenderOptions.WireTrace on,
// every chunk frame carries a compact trace context as the msgq
// auxiliary part: the chunk's identity plus the sender's monotonic-epoch
// timestamps for each stage boundary it crossed. The receiver maps those
// timestamps onto its own clock with the connection handshake's offset
// estimate and stitches the sender's compress/queue/wire spans onto its
// own receive/queue-wait/decompress spans — one flow-linked journey per
// chunk in the merged Chrome trace, and two end-to-end histograms
// (chunk_e2e_ns, chunk_wire_ns) in the receiver's registry.
//
// The context is advisory by design: a malformed context is counted and
// ignored rather than quarantining the chunk it described, and a
// forwarder hop drops it (the relay re-frames messages without aux) —
// journeys then degrade to the receiver's single-host spans.

// wireCtx is the on-wire trace context. Timestamps are the *sender's*
// trace.NowNanos() readings; zero means "stage not crossed" (e.g. no
// compress pool configured).
type wireCtx struct {
	Version       uint8
	Seq           uint64
	Stream        uint32
	CompressStart int64 // compress worker picked the chunk up
	CompressEnd   int64 // compression finished
	Enqueue       int64 // chunk entered the send queue
	Dequeue       int64 // send worker picked it up
	Send          int64 // first byte of the frame headed for the socket
}

// wireCtxVersion is the current context layout version. Decoders accept
// any version and any length ≥ wireCtxLen, so future layouts can append
// fields without breaking deployed receivers.
const wireCtxVersion = 1

// wireCtxLen is the encoded size: version byte, seq, stream, five
// timestamps, little-endian.
const wireCtxLen = 1 + 8 + 4 + 5*8

func encodeWireCtx(c wireCtx) []byte {
	b := make([]byte, wireCtxLen)
	b[0] = c.Version
	binary.LittleEndian.PutUint64(b[1:], c.Seq)
	binary.LittleEndian.PutUint32(b[9:], c.Stream)
	binary.LittleEndian.PutUint64(b[13:], uint64(c.CompressStart))
	binary.LittleEndian.PutUint64(b[21:], uint64(c.CompressEnd))
	binary.LittleEndian.PutUint64(b[29:], uint64(c.Enqueue))
	binary.LittleEndian.PutUint64(b[37:], uint64(c.Dequeue))
	binary.LittleEndian.PutUint64(b[45:], uint64(c.Send))
	return b
}

func decodeWireCtx(b []byte) (wireCtx, error) {
	if len(b) < wireCtxLen {
		return wireCtx{}, fmt.Errorf("pipeline: wire trace context of %d bytes, need %d", len(b), wireCtxLen)
	}
	if b[0] == 0 {
		return wireCtx{}, fmt.Errorf("pipeline: wire trace context version 0")
	}
	return wireCtx{
		Version:       b[0],
		Seq:           binary.LittleEndian.Uint64(b[1:]),
		Stream:        binary.LittleEndian.Uint32(b[9:]),
		CompressStart: int64(binary.LittleEndian.Uint64(b[13:])),
		CompressEnd:   int64(binary.LittleEndian.Uint64(b[21:])),
		Enqueue:       int64(binary.LittleEndian.Uint64(b[29:])),
		Dequeue:       int64(binary.LittleEndian.Uint64(b[37:])),
		Send:          int64(binary.LittleEndian.Uint64(b[45:])),
	}, nil
}

// flowID derives the Perfetto flow id from chunk identity — stable
// across processes and Add interleavings, which is what keeps merged
// traces deterministic. The top bit is always set: flow id 0 means "no
// flow" to the tracer, and chunk (stream 0, seq 0) would otherwise
// produce exactly that.
func flowID(stream uint32, seq uint64) uint64 {
	return 1<<63 | uint64(stream&0x7FFFFFFF)<<32 | (seq & 0xFFFFFFFF)
}

// chunkJourney is the receiver-side record of one traced chunk,
// attached to the Chunk as it moves through the receiver's stages.
type chunkJourney struct {
	ctx       wireCtx
	recvNanos int64         // frame fully off the wire (transport clock stamp)
	offset    time.Duration // sender clock − receiver clock, from the handshake
	peer      string
}

// Receiver-side journey metric names. The telemetry endpoint also
// exposes each as a seconds-converted series (chunk_e2e_seconds, ...).
const (
	HistChunkE2E  = "chunk_e2e_ns"  // sender first stage → receiver delivery
	HistChunkWire = "chunk_wire_ns" // sender send → receiver frame arrival
	// CtrBadTraceCtx counts frames whose trace context failed to
	// decode. Advisory: the chunk itself still delivers.
	CtrBadTraceCtx = "trace_ctx_bad"
	// GaugeClockOffset is the most recent sender-clock offset estimate
	// (sender − receiver, nanoseconds).
	GaugeClockOffset = "clock_offset_ns"
)

// journeyRecorder turns chunkJourneys into histograms and merged trace
// spans on the receiver.
type journeyRecorder struct {
	reg    *metrics.Registry
	trc    *opTracer
	e2e    *metrics.Histogram
	wire   *metrics.Histogram
	badCtx *metrics.Counter
	offset *metrics.Gauge

	mu        sync.Mutex
	perStream map[uint32]*metrics.Histogram
}

func newJourneyRecorder(reg *metrics.Registry, trc *opTracer) *journeyRecorder {
	return &journeyRecorder{
		reg:       reg,
		trc:       trc,
		e2e:       reg.Histogram(HistChunkE2E),
		wire:      reg.Histogram(HistChunkWire),
		badCtx:    reg.Counter(CtrBadTraceCtx),
		offset:    reg.Gauge(GaugeClockOffset),
		perStream: make(map[uint32]*metrics.Histogram),
	}
}

func (jr *journeyRecorder) streamHist(stream uint32) *metrics.Histogram {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	h, ok := jr.perStream[stream]
	if !ok {
		// Capped per-stream series: past the registry's stream cap the
		// histogram is the shared "chunk_e2e_stream_other_ns" bucket.
		h = jr.reg.StreamHistogram("chunk_e2e", "_ns", stream)
		jr.perStream[stream] = h
	}
	return h
}

// localSeconds converts a receiver trace-clock reading into the
// tracer's span timeline (seconds since the opTracer started).
func (jr *journeyRecorder) localSeconds(nanos int64) float64 {
	return trace.Epoch().Add(time.Duration(nanos)).Sub(jr.trc.start).Seconds()
}

// finish closes out one chunk's journey at delivery time: end-to-end and
// wire-time observations, and — when tracing — the sender's spans
// remapped onto the receiver's timeline and flow-linked to the local
// receive span. endNanos is the receiver trace clock at delivery.
func (jr *journeyRecorder) finish(j *chunkJourney, endNanos int64) {
	if j == nil {
		return
	}
	off := int64(j.offset)
	jr.offset.Set(float64(off))
	// Map a sender trace-clock reading onto the receiver's.
	local := func(senderNanos int64) int64 { return senderNanos - off }

	first := j.ctx.CompressStart
	if first == 0 {
		first = j.ctx.Enqueue
	}
	if first == 0 {
		first = j.ctx.Send
	}
	if first != 0 {
		if d := endNanos - local(first); d > 0 {
			jr.e2e.Observe(d)
			jr.streamHist(j.ctx.Stream).Observe(d)
		}
	}
	if j.ctx.Send != 0 {
		if d := j.recvNanos - local(j.ctx.Send); d > 0 {
			jr.wire.Observe(d)
		}
	}

	if jr.trc == nil {
		return
	}
	// Sender-side spans, on the sender's process track so the merged
	// trace shows both hosts. Track = stream id: worker identity did not
	// travel, stream identity did.
	proc := j.peer
	if proc == "" {
		proc = "sender"
	}
	track := int(j.ctx.Stream)
	span := func(name string, from, to int64) {
		if from == 0 || to == 0 || to < from {
			return
		}
		jr.trc.tr.Add(trace.Event{
			Name:     name,
			Category: name,
			Start:    jr.localSeconds(local(from)),
			Duration: time.Duration(to - from).Seconds(),
			Process:  proc,
			Track:    track,
			Args:     map[string]any{"seq": j.ctx.Seq, "stream": j.ctx.Stream},
		})
	}
	span("compress", j.ctx.CompressStart, j.ctx.CompressEnd)
	span("queue-wait", j.ctx.Enqueue, j.ctx.Dequeue)
	// The wire span runs from the sender's send stamp to the receiver's
	// arrival stamp (already local): its flow start links to the local
	// receive span's flow finish.
	if s := j.ctx.Send; s != 0 && j.recvNanos > local(s) {
		jr.trc.tr.Add(trace.Event{
			Name:     "wire",
			Category: "wire",
			Start:    jr.localSeconds(local(s)),
			Duration: time.Duration(j.recvNanos - local(s)).Seconds(),
			Process:  proc,
			Track:    track,
			Args:     map[string]any{"seq": j.ctx.Seq, "stream": j.ctx.Stream},
			FlowID:   flowID(j.ctx.Stream, j.ctx.Seq),
			FlowOut:  true,
		})
	}
}
