package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/lz4"
	"numastream/internal/msgq"
)

// packedMessage is a well-formed wire message carrying a compressible
// 4 KiB chunk as an LZ4 block.
func packedMessage(stream uint32, seq uint64) msgq.Message {
	raw := bytes.Repeat([]byte(fmt.Sprintf("s%d-c%04d|", stream, seq)), 512)[:4<<10]
	block := make([]byte, lz4.CompressBound(len(raw)))
	n, err := lz4.CompressBlock(raw, block)
	if err != nil {
		panic(err)
	}
	block = block[:n]
	hdr := encodeHeader(Chunk{Seq: seq, Stream: stream, RawLen: len(raw), Packed: true}, crc32.Checksum(block, crcTable))
	return msgq.Message{hdr, block}
}

// pushStreams sends perStream messages on each of n streams, one
// connection and one goroutine per stream, stream s sending
// msg(s, 0..perStream-1) in order. Senders that outlive the receiver
// block in Send; the returned stop function closes them and waits.
func pushStreams(addr string, n, perStream int, msg func(stream uint32, seq uint64) msgq.Message) (stop func()) {
	var wg sync.WaitGroup
	pushes := make([]*msgq.Push, n)
	for s := range pushes {
		pushes[s] = msgq.NewPush()
		pushes[s].Connect(addr)
		wg.Add(1)
		go func(stream uint32, p *msgq.Push) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				if p.Send(msg(stream, uint64(i))) != nil {
					return
				}
			}
		}(uint32(s), pushes[s])
	}
	return func() {
		for _, p := range pushes {
			p.Close()
		}
		wg.Wait()
	}
}

// TestReceiverExpectIsExact: the Sink is handed exactly Expect chunks,
// however many delivery lanes race for the last slots.
func TestReceiverExpectIsExact(t *testing.T) {
	const (
		streams   = 6
		perStream = 20
		expect    = 50
		rounds    = 30
	)
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				var sunk atomic.Int64
				addr, _, done := startReceiver(t, 2, expect, func(o *ReceiverOptions) {
					o.Shards = shards
					o.Sink = func(Chunk) error {
						sunk.Add(1)
						time.Sleep(50 * time.Microsecond)
						return nil
					}
				})
				stop := pushStreams(addr, streams, perStream, packedMessage)
				err := <-done
				stop()
				if err != nil {
					t.Fatalf("round %d: receiver: %v", round, err)
				}
				if n := sunk.Load(); n != expect {
					t.Fatalf("round %d: Sink was handed %d chunks, want exactly Expect = %d", round, n, expect)
				}
			}
		})
	}
}

// TestReceiverTeardownInvariant: whatever ends the run, RunReceiver
// returns promptly with every buffer lease back in the pool and every
// goroutine it started gone — no lane consumer, dispatcher or Stop
// watcher left behind. Each case leaves a backlog (three streams keep
// sending into a tiny decompress queue behind a slow Sink) so the exit
// has queued chunks to dispose of.
func TestReceiverTeardownInvariant(t *testing.T) {
	const (
		streams   = 3
		perStream = 64
	)
	errSink := errors.New("sink refuses")
	// bad swaps one message of stream 0 for an undeliverable one.
	withBad := func(at uint64) func(uint32, uint64) msgq.Message {
		return func(stream uint32, seq uint64) msgq.Message {
			if stream == 0 && seq >= at {
				return corruptLZ4Message()
			}
			return packedMessage(stream, seq)
		}
	}
	cases := []struct {
		name    string
		msg     func(uint32, uint64) msgq.Message
		opts    func(o *ReceiverOptions, delivered *atomic.Int64)
		stopAt  int64 // close Stop once this many chunks are delivered
		wantErr bool
	}{
		{name: "Expect reached", msg: packedMessage,
			opts: func(o *ReceiverOptions, _ *atomic.Int64) { o.Expect = 24 }},
		{name: "Stop closed", msg: packedMessage, stopAt: 24,
			opts: func(o *ReceiverOptions, _ *atomic.Int64) {}},
		{name: "Sink error", msg: packedMessage, wantErr: true,
			opts: func(o *ReceiverOptions, delivered *atomic.Int64) {
				o.Expect = streams * perStream
				sink := o.Sink
				o.Sink = func(c Chunk) error {
					if delivered.Load() >= 24 {
						return errSink
					}
					return sink(c)
				}
			}},
		{name: "FailHard", msg: withBad(8), wantErr: true,
			opts: func(o *ReceiverOptions, _ *atomic.Int64) {
				o.Expect = streams * perStream
				o.FailHard = true
			}},
		{name: "MaxBadChunks", msg: withBad(8), wantErr: true,
			opts: func(o *ReceiverOptions, _ *atomic.Int64) {
				o.Expect = streams * perStream
				o.MaxBadChunks = 2
			}},
	}
	for _, tc := range cases {
		for _, shards := range []int{0, 2} {
			tc, shards := tc, shards
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, shards), func(t *testing.T) {
				baseline := goruntime.NumGoroutine()
				pool := bufpool.New(2)
				var delivered atomic.Int64
				stop := make(chan struct{})
				var stopOnce sync.Once
				addr, _, done := startReceiver(t, 1, 0, func(o *ReceiverOptions) {
					o.Shards = shards
					o.QueueCap = 2
					o.BufPool = pool
					// Every case carries a Stop channel; only "Stop
					// closed" ever closes it.
					o.Stop = stop
					o.Sink = func(Chunk) error {
						time.Sleep(200 * time.Microsecond)
						if n := delivered.Add(1); tc.stopAt > 0 && n >= tc.stopAt {
							stopOnce.Do(func() { close(stop) })
						}
						return nil
					}
					tc.opts(o, &delivered)
				})
				stopSenders := pushStreams(addr, streams, perStream, tc.msg)
				select {
				case err := <-done:
					if (err != nil) != tc.wantErr {
						t.Errorf("RunReceiver = %v, want error: %v", err, tc.wantErr)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("RunReceiver did not return within 2s of its exit cause")
				}
				stopSenders()

				if n := pool.Outstanding(); n != 0 {
					t.Errorf("bufpool has %d leases outstanding after RunReceiver returned", n)
				}
				// Goroutines unwind asynchronously after the calls that
				// stop them return; give them a moment.
				deadline := time.Now().Add(2 * time.Second)
				for goruntime.NumGoroutine() > baseline {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines, %d before the run:\n%s", goruntime.NumGoroutine(), baseline,
							buf[:goruntime.Stack(buf, true)])
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}
