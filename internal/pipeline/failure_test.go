package pipeline

import (
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
)

// Failure injection: a receiver confronted with malformed traffic must
// quarantine it and keep streaming (the default), or fail cleanly (no
// hang, no panic) under FailHard — never silently deliver bad data.

// eachInbox runs one receiver case on both intake shapes: the single
// inbox with no credit gate (Shards 0) and a sharded intake under the
// default per-stream credit (Shards 2).
func eachInbox(t *testing.T, run func(t *testing.T, shards int)) {
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) { run(t, shards) })
	}
}

func startReceiver(t *testing.T, nDec, expect int, mut func(*ReceiverOptions)) (addr string, reg *metrics.Registry, done chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done = make(chan error, 1)
	reg = metrics.NewRegistry()
	opts := ReceiverOptions{
		Cfg: receiverCfg(1, nDec), Topo: testTopo(), Bind: "127.0.0.1:0",
		Expect: expect, Ready: ready, Metrics: reg,
	}
	if mut != nil {
		mut(&opts)
	}
	go func() {
		done <- RunReceiver(opts)
	}()
	return <-ready, reg, done
}

// corruptLZ4Message is a chunk whose CRC is intact but whose payload is
// not a valid LZ4 block — it survives the wire check and dies in the
// decompress stage.
func corruptLZ4Message() msgq.Message {
	payload := []byte{0xff, 0xff, 0xff, 0xff}
	hdr := encodeHeader(Chunk{Seq: 0, RawLen: 1000, Packed: true}, crc32.Checksum(payload, crcTable))
	return msgq.Message{hdr, payload}
}

// crcMismatchMessage is a raw chunk whose header carries the wrong
// payload checksum.
func crcMismatchMessage() msgq.Message {
	payload := []byte("plain payload, wrong checksum")
	hdr := encodeHeader(Chunk{Seq: 0, RawLen: len(payload)}, crc32.Checksum(payload, crcTable)+1)
	return msgq.Message{hdr, payload}
}

// unknownFlagsMessage is a raw chunk whose flags byte sets a bit no
// encoding defines, under the CRC of its payload: a receiver that read
// only the bits it knows would deliver it as raw.
func unknownFlagsMessage() msgq.Message {
	payload := []byte("payload in an encoding nobody defined")
	hdr := encodeHeader(Chunk{Seq: 0, RawLen: len(payload)}, crc32.Checksum(payload, crcTable))
	hdr[flagsAt] |= 4
	return msgq.Message{hdr, payload}
}

// rawLenMismatchMessage is a raw chunk with an intact CRC whose payload
// is shorter than the RawLen its header claims.
func rawLenMismatchMessage() msgq.Message {
	payload := []byte("raw payload one byte short")
	hdr := encodeHeader(Chunk{Seq: 0, RawLen: len(payload) + 1}, crc32.Checksum(payload, crcTable))
	return msgq.Message{hdr, payload}
}

// malformedMessage has the wrong part count: no header to peek, so
// dispatch never charges a stream's credit for it.
func malformedMessage() msgq.Message { return msgq.Message{[]byte("lonely")} }

// TestReceiverQuarantines: every kind of undeliverable chunk is counted
// and dropped without aborting the node. Each case sends more bad chunks
// of one stream than the default credit window, so a disposal path that
// kept the credit dispatch charged would stall the stream short of
// Expect; the credit gauge must read zero when the run ends.
func TestReceiverQuarantines(t *testing.T) {
	const bad = DefaultStreamCredit + 4
	cases := []struct {
		name string
		nDec int
		msg  func() msgq.Message
	}{
		{"CorruptCompressedChunk", 1, corruptLZ4Message},
		{"CRCMismatch", 0, crcMismatchMessage},
		{"MalformedMessage", 0, malformedMessage},
		{"UnknownFlags", 1, unknownFlagsMessage},
		{"RawLenMismatch", 0, rawLenMismatchMessage},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachInbox(t, func(t *testing.T, shards int) {
				addr, reg, done := startReceiver(t, tc.nDec, bad, func(o *ReceiverOptions) { o.Shards = shards })
				push := newTestPush(t, addr)
				for i := 0; i < bad; i++ {
					if err := push.Send(tc.msg()); err != nil {
						t.Fatalf("Send %d: %v", i, err)
					}
				}
				if err := <-done; err != nil {
					t.Fatalf("quarantine mode must not abort the node: %v", err)
				}
				if n := reg.CounterValue(CtrQuarantined); n != bad {
					t.Fatalf("quarantined = %d, want %d", n, bad)
				}
				if n := gaugeValue(t, reg, GaugeCreditBlocked); n != 0 {
					t.Fatalf("credit_blocked_streams = %g after the run, want 0", n)
				}
				// Every frame with a header reaches the verify, and its
				// time is observed whatever the verdict.
				verified := bad
				if tc.name == "MalformedMessage" {
					verified = 0
				}
				if n := reg.Histogram("verify_crc_ns").Snapshot("").Count; n != int64(verified) {
					t.Fatalf("verify_crc_ns observations = %d, want %d", n, verified)
				}
			})
		})
	}
}

// TestReceiverFailHard: under FailHard the first undeliverable chunk
// aborts the node cleanly (no hang, no panic), naming the stage.
func TestReceiverFailHard(t *testing.T) {
	cases := []struct {
		name    string
		nDec    int
		msg     msgq.Message
		errHas  string
		failMsg string
	}{
		{"CorruptCompressedChunk", 1, corruptLZ4Message(), "decompress", "a corrupt compressed chunk"},
		{"MalformedMessage", 0, malformedMessage(), "", "a one-part message"},
		{"ShortHeader", 0, msgq.Message{[]byte{1, 2, 3}, []byte("data")}, "", "a short header"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachInbox(t, func(t *testing.T, shards int) {
				addr, _, done := startReceiver(t, tc.nDec, 1, func(o *ReceiverOptions) {
					o.FailHard = true
					o.Shards = shards
				})
				push := newTestPush(t, addr)
				if err := push.Send(tc.msg); err != nil {
					t.Fatalf("Send: %v", err)
				}
				err := <-done
				if err == nil {
					t.Fatalf("FailHard receiver accepted %s", tc.failMsg)
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("error does not identify the stage: %v", err)
				}
			})
		})
	}
}

func TestReceiverMaxBadChunksAborts(t *testing.T) {
	eachInbox(t, func(t *testing.T, shards int) {
		addr, _, done := startReceiver(t, 0, 10, func(o *ReceiverOptions) {
			o.MaxBadChunks = 1
			o.Shards = shards
		})
		push := newTestPush(t, addr)

		// Two bad chunks: the first is quarantined, the second crosses the
		// threshold and must abort the node.
		for i := 0; i < 2; i++ {
			if err := push.Send(malformedMessage()); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		err := <-done
		if err == nil {
			t.Fatal("receiver survived past MaxBadChunks")
		}
		if !strings.Contains(err.Error(), "MaxBadChunks") {
			t.Fatalf("error does not identify the threshold: %v", err)
		}
	})
}

// TestReceiverDecompressAbortUnblocksReceivers is the regression test
// for a shutdown wedge: when the decompress stage aborts (MaxBadChunks
// here), receive workers may be blocked in decQ.Put on a full queue —
// pull.Close only wakes workers parked in Recv, so unless the abort
// path also closes decQ, RunReceiver hangs forever in Pool.Wait. A
// QueueCap of 1 plus a burst of corrupt-LZ4 chunks forces the blocked
// producer; the receiver must still return the threshold error.
func TestReceiverDecompressAbortUnblocksReceivers(t *testing.T) {
	eachInbox(t, func(t *testing.T, shards int) {
		addr, _, done := startReceiver(t, 1, 64, func(o *ReceiverOptions) {
			o.QueueCap = 1
			o.MaxBadChunks = 1
			o.Shards = shards
		})
		push := msgq.NewPush()
		push.SendHorizon = 2 * time.Second
		t.Cleanup(func() { push.Close() })
		push.Connect(addr)

		// Every chunk passes the wire CRC and dies in decompress: the second
		// crosses MaxBadChunks and aborts that stage while later chunks are
		// still piling into the cap-1 queue.
		for i := 0; i < 16; i++ {
			if err := push.Send(corruptLZ4Message()); err != nil {
				break // receiver already aborted and tore the socket down
			}
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "MaxBadChunks") {
				t.Fatalf("RunReceiver = %v, want MaxBadChunks abort", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunReceiver wedged: receive worker stuck in decQ.Put after the decompress stage aborted")
		}
	})
}

// TestReceiverSurvivesRefusedAccepts drives the pipeline through a
// fault-wrapped listener that refuses the first connection (what a
// restarting gateway looks like): the sender's redial loop must get
// through on the second attempt and every chunk must arrive.
func TestReceiverSurvivesRefusedAccepts(t *testing.T) {
	eachInbox(t, func(t *testing.T, shards int) {
		base, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		inj := faults.NewInjector(faults.Plan{Refuse: []faults.AcceptWindow{{From: 0, To: 1}}})

		const chunks = 8
		var mu sync.Mutex
		delivered := 0
		done := make(chan error, 1)
		go func() {
			done <- RunReceiver(ReceiverOptions{
				Cfg: receiverCfg(1, 1), Topo: testTopo(),
				Listener: inj.Listener(base),
				Expect:   chunks,
				Shards:   shards,
				Sink: func(c Chunk) error {
					mu.Lock()
					delivered++
					mu.Unlock()
					return nil
				},
			})
		}()

		if err := RunSender(SenderOptions{
			Cfg: senderCfg(1, 1), Topo: testTopo(),
			Peers:  []string{base.Addr().String()},
			Source: chunkSource(chunks, 4<<10),
		}); err != nil {
			t.Fatalf("RunSender: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("RunReceiver: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if delivered != chunks {
			t.Fatalf("delivered %d of %d chunks", delivered, chunks)
		}
		if st := inj.Stats(); st.RefusedAccepts != 1 {
			t.Fatalf("RefusedAccepts = %d, want 1", st.RefusedAccepts)
		}
	})
}

// TestSenderDistributesAcrossPeers: a sender with two receiver peers
// round-robins chunks between them (the PUSH socket's distribution).
func TestSenderDistributesAcrossPeers(t *testing.T) {
	topo := testTopo()
	const chunks = 20

	type gw struct {
		addr  string
		count int
		done  chan error
	}
	var mu sync.Mutex
	total := 0
	stop := make(chan struct{}) // shared: both gateways stop together
	mk := func() *gw {
		g := &gw{done: make(chan error, 1)}
		ready := make(chan string, 1)
		go func() {
			g.done <- RunReceiver(ReceiverOptions{
				Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
				Stop: stop, Ready: ready,
				Sink: func(c Chunk) error {
					mu.Lock()
					g.count++
					total++
					if total == chunks {
						close(stop)
					}
					mu.Unlock()
					return nil
				},
			})
		}()
		g.addr = <-ready
		return g
	}
	g1, g2 := mk(), mk()

	// The first chunk waits until both peers are dialed, so the chunks
	// spread over both instead of piling onto whichever dialed first.
	reg := metrics.NewRegistry()
	next := chunkSource(chunks, 4<<10)
	var dialed sync.Once
	source := func() []byte {
		dialed.Do(func() {
			deadline := time.Now().Add(5 * time.Second)
			for reg.CounterValue(msgq.CtrDials) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		})
		return next()
	}
	if err := RunSender(SenderOptions{
		Cfg: senderCfg(0, 1), Topo: topo,
		Peers:   []string{g1.addr, g2.addr},
		Metrics: reg,
		Source:  source,
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-g1.done; err != nil {
		t.Fatalf("gw1: %v", err)
	}
	if err := <-g2.done; err != nil {
		t.Fatalf("gw2: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if g1.count+g2.count != chunks {
		t.Fatalf("delivered %d+%d, want %d", g1.count, g2.count, chunks)
	}
	// Round robin: both peers carry a meaningful share.
	if g1.count < chunks/4 || g2.count < chunks/4 {
		t.Fatalf("lopsided distribution: %d vs %d", g1.count, g2.count)
	}
}

// helpers shared by forwarder tests
func newTestPush(t *testing.T, addr string) *msgq.Push {
	t.Helper()
	p := msgq.NewPush()
	t.Cleanup(func() { p.Close() })
	p.Connect(addr)
	return p
}

func testMessage(s string) msgq.Message { return msgq.Message{[]byte(s)} }
