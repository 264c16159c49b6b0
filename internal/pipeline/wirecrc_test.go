package pipeline

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"time"

	"numastream/internal/bitshuffle"
	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
)

// The sender takes a chunk's CRC in the stage that produced its wire
// bytes, so every such stage and branch needs the check the send worker
// used to give them all at once.

// tapFrames relays n frames from a sender to the receiver at addr,
// handing each to check on the way: the test sees frames as they travel
// the wire and the receiver still sees all of them.
func tapFrames(t *testing.T, addr string, n int, check func(msgq.Message)) (tapAddr string, done chan struct{}) {
	t.Helper()
	pull, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	push := newTestPush(t, addr)
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer pull.Close()
		for i := 0; i < n; i++ {
			msg, err := pull.Recv()
			if err != nil {
				t.Errorf("tap Recv %d: %v", i, err)
				return
			}
			check(msg)
			if err := push.Send(msg); err != nil {
				t.Errorf("tap Send %d: %v", i, err)
				return
			}
		}
	}()
	return pull.Addr().String(), done
}

// keepSink is a Sink that copies every delivered payload into got, keyed
// by sequence number; got is the caller's to read once RunReceiver has
// returned.
func keepSink(got map[uint64][]byte) func(Chunk) error {
	var mu sync.Mutex
	return func(c Chunk) error {
		mu.Lock()
		defer mu.Unlock()
		got[c.Seq] = append([]byte(nil), c.Data...)
		return nil
	}
}

// TestWireCRCEveryProducer: whichever stage and branch produced a
// chunk's wire bytes, the header carries the CRC-32C of exactly those
// bytes — followed, for a bitshuffled chunk, by its flags byte — and the
// chunk arrives intact.
func TestWireCRCEveryProducer(t *testing.T) {
	const chunks = 3
	compressible := func(i, size int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("projection-%04d ", i)), size/16+1)[:size]
	}
	incompressible := func(i, size int) []byte {
		b := make([]byte, size)
		rand.New(rand.NewSource(int64(i + 1))).Read(b)
		return b
	}
	// What the wire must carry: a 1-byte chunk never packs, and only a
	// host with the vector encoder filters.
	cases := []struct {
		name     string
		nComp    int
		data     func(i, size int) []byte
		packed   bool
		shuffled bool
	}{
		{"lz4-fast", 1, compressible, true, false},
		{"raw-fallback", 1, incompressible, false, false},
		{"no-compress-stage", 0, incompressible, false, false},
		{"lz4-bitshuffle", 1, projectionChunk, true, true},
	}
	for _, tc := range cases {
		tc := tc
		for _, size := range []int{1, 16 << 10, 1 << 20} {
			size := size
			t.Run(fmt.Sprintf("%s/%d", tc.name, size), func(t *testing.T) {
				want := make([][]byte, chunks)
				for i := range want {
					want[i] = tc.data(i, size)
				}
				got := make(map[uint64][]byte)
				addr, rReg, recvDone := startReceiver(t, 1, chunks, func(o *ReceiverOptions) { o.Sink = keepSink(got) })
				tapAddr, tapDone := tapFrames(t, addr, chunks, func(msg msgq.Message) {
					c, sum, err := parseFrame(msg)
					if err != nil {
						t.Errorf("frame on the wire: %v", err)
						return
					}
					have := crc32.Checksum(msg[1], crcTable)
					if c.Shuffled {
						have = crc32.Update(have, crcTable, msg[0][flagsAt:flagsAt+1])
					}
					if sum != have {
						t.Errorf("chunk %d: header CRC %08x, payload as received sums to %08x", c.Seq, sum, have)
					}
					if wantPacked := tc.packed && size > 1; c.Packed != wantPacked {
						t.Errorf("chunk %d: packed = %v, want %v — the case is not exercising the producer it names", c.Seq, c.Packed, wantPacked)
					}
					if wantShuffled := tc.shuffled && size > 1 && bitshuffle.Vectorized(); c.Shuffled != wantShuffled {
						t.Errorf("chunk %d: shuffled = %v, want %v", c.Seq, c.Shuffled, wantShuffled)
					}
				})
				next := 0
				if err := RunSender(SenderOptions{
					Cfg: senderCfg(tc.nComp, 1), Topo: testTopo(), Peers: []string{tapAddr},
					Source: func() []byte {
						if next == chunks {
							return nil
						}
						next++
						return want[next-1]
					},
				}); err != nil {
					t.Fatalf("RunSender: %v", err)
				}
				<-tapDone
				if err := <-recvDone; err != nil {
					t.Fatalf("RunReceiver: %v", err)
				}
				if n := rReg.CounterValue(CtrQuarantined); n != 0 {
					t.Fatalf("chunks_quarantined = %d, want 0", n)
				}
				for i, w := range want {
					if !bytes.Equal(got[uint64(i)], w) {
						t.Fatalf("chunk %d not delivered intact", i)
					}
				}
			})
		}
	}
}

// TestRewrittenSourceBufferQuarantined: the CRC is taken when a chunk's
// wire bytes are produced, so bytes that change afterwards — here a
// Source that reuses a buffer it already yielded, while that chunk waits
// in a full send queue behind a stalled write — fail the receiver's check
// and are quarantined. When the send worker summed at dequeue, the
// rewritten chunk was delivered under a valid CRC.
func TestRewrittenSourceBufferQuarantined(t *testing.T) {
	const chunks, size, victim = 4, 64 << 10, 1
	bufs := make([][]byte, chunks)
	want := make([][]byte, chunks)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
		want[i] = append([]byte(nil), bufs[i]...)
	}
	got := make(map[uint64][]byte)
	addr, rReg, recvDone := startReceiver(t, 0, chunks, func(o *ReceiverOptions) { o.Sink = keepSink(got) })
	// The stall fires inside chunk 0's payload write (the handshake and
	// the chunk header are far below 1 KiB). The one send worker sits in
	// it while the feeder queues the victim — QueueCap 1, so the send
	// queue is full — and comes back to the Source, which rewrites the
	// victim's buffer on that call.
	inj := faults.NewInjector(faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Stall, AfterBytes: 1 << 10, Stall: 300 * time.Millisecond},
	}})
	next := 0
	sReg := metrics.NewRegistry()
	err := RunSender(SenderOptions{
		Cfg: senderCfg(0, 1), Topo: testTopo(), Peers: []string{addr},
		QueueCap: 1, Dial: inj.Dialer(nil), Metrics: sReg,
		Source: func() []byte {
			if next == chunks {
				return nil
			}
			if next == victim+1 {
				bufs[victim][size/2] ^= 0xff
			}
			next++
			return bufs[next-1]
		},
	})
	if err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	if n := inj.Stats().Stalls; n != 1 {
		t.Fatalf("stalls fired = %d, want 1", n)
	}
	if n := rReg.CounterValue(CtrQuarantined); n != 1 {
		t.Errorf("chunks_quarantined = %d, want 1", n)
	}
	for i := range want {
		data, delivered := got[uint64(i)]
		switch {
		case i == victim && delivered:
			t.Errorf("chunk %d was rewritten after the Source yielded it and was delivered anyway (intact: %v)",
				i, bytes.Equal(data, want[i]))
		case i != victim && !bytes.Equal(data, want[i]):
			t.Errorf("chunk %d not delivered intact", i)
		}
	}
	// The feeder's checksum time is visible, and is not queue wait.
	if n := sReg.Histogram("source_crc_ns").Count(); n != chunks {
		t.Errorf("source_crc_ns observations = %d, want %d", n, chunks)
	}
}
