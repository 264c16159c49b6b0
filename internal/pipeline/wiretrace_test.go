package pipeline

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"numastream/internal/metrics"
	"numastream/internal/trace"
)

func TestWireCtxRoundTrip(t *testing.T) {
	f := func(seq uint64, stream uint32, cs, ce, enq, deq, snd int64) bool {
		in := wireCtx{
			Version: wireCtxVersion, Seq: seq, Stream: stream,
			CompressStart: cs, CompressEnd: ce, Enqueue: enq, Dequeue: deq, Send: snd,
		}
		out, err := decodeWireCtx(encodeWireCtx(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireCtxDecodeRejects(t *testing.T) {
	if _, err := decodeWireCtx(make([]byte, wireCtxLen-1)); err == nil {
		t.Fatal("decoded a short context")
	}
	if _, err := decodeWireCtx(make([]byte, wireCtxLen)); err == nil {
		t.Fatal("decoded a version-0 context")
	}
	// Forward compatibility: a longer context (a future version that
	// appended fields) must decode its known prefix.
	long := append(encodeWireCtx(wireCtx{Version: 7, Seq: 42}), 0xDE, 0xAD)
	wc, err := decodeWireCtx(long)
	if err != nil || wc.Version != 7 || wc.Seq != 42 {
		t.Fatalf("extended context: %+v, %v", wc, err)
	}
}

// FuzzDecodeWireCtx: the extended frame-header parser must never panic
// and must faithfully re-encode whatever it accepted.
func FuzzDecodeWireCtx(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, wireCtxLen))
	f.Add(encodeWireCtx(wireCtx{Version: wireCtxVersion, Seq: 9, Stream: 3, Send: 12345}))
	f.Fuzz(func(t *testing.T, b []byte) {
		wc, err := decodeWireCtx(b)
		if err != nil {
			return
		}
		if wc.Version == 0 {
			t.Fatal("accepted version 0")
		}
		back, err := decodeWireCtx(encodeWireCtx(wc))
		if err != nil || back != wc {
			t.Fatalf("re-encode mismatch: %+v vs %+v (%v)", wc, back, err)
		}
	})
}

// TestWireJourneyLoopback is the end-to-end journey check: a WireTrace
// sender against a tracing receiver must produce e2e/wire histograms
// covering every chunk and a merged trace whose sender-process spans
// flow-link into the receiver's receive spans.
func TestWireJourneyLoopback(t *testing.T) {
	const chunks, size = 30, 32 << 10
	sReg, rReg := metrics.NewRegistry(), metrics.NewRegistry()
	tr := trace.New(0)

	topo := testTopo()
	ready := make(chan string, 1)
	recvErr := make(chan error, 1)
	delivered := 0
	go func() {
		recvErr <- RunReceiver(ReceiverOptions{
			Cfg:     receiverCfg(2, 2),
			Topo:    topo,
			Bind:    "127.0.0.1:0",
			Expect:  chunks,
			Metrics: rReg,
			Tracer:  tr,
			Ready:   ready,
			Sink:    func(Chunk) error { delivered++; return nil },
		})
	}()
	addr := <-ready
	if err := RunSender(SenderOptions{
		Cfg:       senderCfg(2, 2),
		Topo:      topo,
		Peers:     []string{addr},
		Source:    chunkSource(chunks, size),
		Metrics:   sReg,
		WireTrace: true,
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}

	if n := rReg.Histogram(HistChunkE2E).Snapshot("").Count; n != chunks {
		t.Fatalf("chunk_e2e_ns count = %d, want %d", n, chunks)
	}
	if n := rReg.Histogram(HistChunkWire).Snapshot("").Count; n != chunks {
		t.Fatalf("chunk_wire_ns count = %d, want %d", n, chunks)
	}
	if n := rReg.Histogram("chunk_e2e_stream_0_ns").Snapshot("").Count; n != chunks {
		t.Fatalf("per-stream e2e count = %d, want %d", n, chunks)
	}
	if q := rReg.Histogram(HistChunkE2E).Quantile(0.5); q <= 0 {
		t.Fatalf("e2e p50 = %v", q)
	}
	if rReg.CounterValue(CtrBadTraceCtx) != 0 {
		t.Fatalf("bad trace contexts: %d", rReg.CounterValue(CtrBadTraceCtx))
	}

	// The merged trace must carry sender-process spans (stitched from
	// wire contexts, Process = the sender's hello label "snd") next to
	// the receiver's own, with flow ends on both sides.
	var wireOut, recvIn, senderCompress int
	for _, e := range tr.Events() {
		switch {
		case e.Name == "wire" && e.Process == "snd" && e.FlowOut:
			wireOut++
		case e.Name == "receive" && e.Process == "rcv" && e.FlowIn:
			recvIn++
		case e.Name == "compress" && e.Process == "snd":
			senderCompress++
		}
	}
	if wireOut != chunks || recvIn != chunks {
		t.Fatalf("flow spans: %d wire-out / %d receive-in, want %d each", wireOut, recvIn, chunks)
	}
	if senderCompress != chunks {
		t.Fatalf("stitched sender compress spans = %d, want %d", senderCompress, chunks)
	}

	// And the serialized Chrome trace carries matching s/f flow pairs.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	starts := map[string]int{}
	finishes := map[string]int{}
	for _, e := range events {
		switch e["ph"] {
		case "s":
			starts[e["id"].(string)]++
		case "f":
			finishes[e["id"].(string)]++
		}
	}
	if len(starts) != chunks {
		t.Fatalf("distinct flow starts = %d, want %d", len(starts), chunks)
	}
	for id := range starts {
		if finishes[id] == 0 {
			t.Fatalf("flow %s has no finish", id)
		}
	}
}

// TestWireTraceOffNoJourneys: with WireTrace off the receiver must see
// no aux parts and record no journey histograms — the tracing-off hot
// path is the seed pipeline.
func TestWireTraceOffNoJourneys(t *testing.T) {
	const chunks, size = 10, 8 << 10
	sReg, rReg := metrics.NewRegistry(), metrics.NewRegistry()
	got := runLoopback(t, senderCfg(1, 1), receiverCfg(1, 1), chunks, size, sReg, rReg)
	if len(got) != chunks {
		t.Fatalf("delivered %d chunks, want %d", len(got), chunks)
	}
	if n := rReg.Histogram(HistChunkE2E).Snapshot("").Count; n != 0 {
		t.Fatalf("chunk_e2e_ns count = %d with tracing off", n)
	}
}
