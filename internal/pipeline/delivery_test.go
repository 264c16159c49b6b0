package pipeline

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/msgq"
)

// TestInlineDeliveryContract: without credit the stage worker that
// finished a chunk delivers it, and the Sink's contract is the lanes':
// with two decompress workers finishing chunks of four streams on one
// inbox, no two calls for one stream overlap, every (stream, seq) arrives
// exactly once, and a Sink error mid-run ends RunReceiver with that error
// and every lease back in the pool.
func TestInlineDeliveryContract(t *testing.T) {
	const (
		streams   = 4
		perStream = 64
	)
	errSink := errors.New("sink refuses")
	for _, failAt := range []int64{0, streams * perStream / 3} {
		name := "clean"
		if failAt > 0 {
			name = "Sink error"
		}
		t.Run(name, func(t *testing.T) {
			pool := bufpool.New(1)
			var (
				busy     [streams]atomic.Bool
				calls    atomic.Int64
				mu       sync.Mutex
				seen     = make(map[[2]uint64]int)
				overlaps atomic.Int64
				parallel atomic.Int64 // calls that found another stream's call running
				running  atomic.Int64
			)
			stop := make(chan struct{})
			addr, _, done := startReceiver(t, 2, 0, func(o *ReceiverOptions) {
				o.BufPool = pool
				o.Stop = stop
				o.QueueCap = 4
				if failAt == 0 {
					o.Expect = streams * perStream
				}
				o.Sink = func(c Chunk) error {
					if !busy[c.Stream].CompareAndSwap(false, true) {
						overlaps.Add(1)
					}
					if running.Add(1) > 1 {
						parallel.Add(1)
					}
					mu.Lock()
					seen[[2]uint64{uint64(c.Stream), c.Seq}]++
					mu.Unlock()
					time.Sleep(100 * time.Microsecond)
					n := calls.Add(1)
					running.Add(-1)
					busy[c.Stream].Store(false)
					if failAt > 0 && n == failAt {
						return errSink
					}
					return nil
				}
			})
			stopSenders := pushStreams(addr, streams, perStream, packedMessage)
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				close(stop)
				t.Fatal("RunReceiver did not return")
			}
			stopSenders()
			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d Sink calls overlapped another call for the same stream", n)
			}
			for k, n := range seen {
				if n != 1 {
					t.Errorf("stream %d seq %d delivered %d times", k[0], k[1], n)
				}
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("bufpool has %d leases outstanding after RunReceiver returned", n)
			}
			t.Logf("%d calls, %d while another stream's call ran", calls.Load(), parallel.Load())
			if failAt > 0 {
				if !errors.Is(err, errSink) {
					t.Fatalf("RunReceiver = %v, want the Sink's error", err)
				}
				// The other worker's call may have begun before the
				// failure; none may begin after it.
				if n := calls.Load(); n < failAt || n > failAt+1 {
					t.Errorf("Sink called %d times, want %d or one more", n, failAt)
				}
				return
			}
			if err != nil {
				t.Fatalf("RunReceiver: %v", err)
			}
			if len(seen) != streams*perStream {
				t.Fatalf("%d distinct chunks delivered, want %d", len(seen), streams*perStream)
			}
		})
	}
}

// TestReceiverQuarantinesImpossibleRawLen: a packed frame whose header
// claims more raw bytes than any LZ4 block of its size can decode to is
// quarantined at the verify — intact CRC and all — before the decompress
// stage rents a buffer of that size.
func TestReceiverQuarantinesImpossibleRawLen(t *testing.T) {
	eachInbox(t, func(t *testing.T, shards int) {
		pool := bufpool.New(1)
		addr, reg, done := startReceiver(t, 1, 2, func(o *ReceiverOptions) {
			o.Shards = shards
			o.BufPool = pool
		})
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = byte(i)
		}
		push := newTestPush(t, addr)
		for seq, rawLen := range []int{1 << 31, maxExpansion*len(payload) + 1} {
			hdr := encodeHeader(Chunk{Seq: uint64(seq), RawLen: rawLen, Packed: true}, crc32.Checksum(payload, crcTable))
			if err := push.Send(msgq.Message{hdr, payload}); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("RunReceiver: %v", err)
		}
		if n := reg.CounterValue(CtrQuarantined); n != 2 {
			t.Fatalf("chunks_quarantined = %d, want 2", n)
		}
		if st := pool.Stats(); st.Oversize != 0 || pool.Outstanding() != 0 {
			t.Fatalf("bufpool: %d oversize rentals, %d outstanding, want 0 and 0", st.Oversize, pool.Outstanding())
		}
	})
}

// TestVerifyPayloadExpansionBound: the bound is LZ4's, not tighter — a
// block decoding to 255 bytes per block byte passes.
func TestVerifyPayloadExpansionBound(t *testing.T) {
	payload := make([]byte, 100)
	for _, tc := range []struct {
		rawLen int
		ok     bool
	}{{maxExpansion * len(payload), true}, {maxExpansion*len(payload) + 1, false}} {
		c := Chunk{RawLen: tc.rawLen, Packed: true}
		sum := wireCRC(payload, c.flags())
		err := verifyPayload(msgq.Message{encodeHeader(c, sum), payload}, c, sum)
		if (err == nil) != tc.ok {
			t.Errorf("RawLen %d of %d bytes: %v", tc.rawLen, len(payload), fmt.Sprint(err))
		}
	}
}
