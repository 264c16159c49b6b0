package pipeline

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"numastream/internal/numa"
	"numastream/internal/queue"
)

var handoffSink uint32

// BenchmarkPoolHandoff times one chunk through queue → worker → queue
// with one chunk in flight, so every Put wakes a parked worker — the
// state the real stages live in, where each consumer is faster than its
// producer. The work is a stage's smallest per-chunk compute (CRC-32C
// of a 16 KiB chunk, about a microsecond), small enough that the
// wake-up is most of the time. unpinned and whole-host must agree
// within noise: a CPU set covering every allowed CPU runs as a plain
// goroutine. one-cpu is the price of a pin that constrains: its worker
// owns a locked thread, and waking it goes through the runtime's
// locked-thread hand-off. DESIGN.md quotes the three numbers.
func BenchmarkPoolHandoff(b *testing.B) {
	type pinCase struct {
		name string
		pin  PinSpec
	}
	cases := []pinCase{{"unpinned", Unpinned}}
	if allowed, err := numa.Allowed(); err == nil {
		cases = append(cases, pinCase{"whole-host", PinSpec{CPUSets: [][]int{allowed}}})
		if len(allowed) >= 2 {
			cases = append(cases, pinCase{"one-cpu", PinSpec{CPUSets: [][]int{allowed[len(allowed)-1:]}}})
		}
	}
	chunk := make([]byte, 16<<10)
	for i := range chunk {
		chunk[i] = byte(i * 131)
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			in, out := queue.New[[]byte](1), queue.New[uint32](1)
			pool := StartPool(PoolConfig{Name: "handoff", Workers: 1, Pin: tc.pin}, func(w *Worker) error {
				for {
					c, err := in.Get()
					if err != nil {
						return nil // closed: the run is over
					}
					if err := out.Put(crc32.Checksum(c, crcTable)); err != nil {
						return nil
					}
				}
			})
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Put(chunk); err != nil {
					b.Fatal(err)
				}
				sum, err := out.Get()
				if err != nil {
					b.Fatal(err)
				}
				handoffSink = sum
			}
			b.StopTimer()
			in.Close()
			if err := pool.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLoopbackRaw streams incompressible 1 MiB chunks through a
// sender with no compress stage and one send worker, over real loopback
// TCP, into a receiver with no decompress stage: the shape of the
// repository benchmark's raw_passthrough, where the only per-byte work
// is the CRC on each side and the socket copy. The chunks cycle through
// a 64 MiB ring, so the feeder's checksum is the first touch of its data
// as it is there. The MB/s column is supporting evidence for a change to
// that path; claims are made with benchmark/run.sh.
func BenchmarkLoopbackRaw(b *testing.B) {
	const size, ringLen = 1 << 20, 64
	ring := make([]byte, size*ringLen)
	rand.New(rand.NewSource(1)).Read(ring)
	topo := testTopo()
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
			Expect: b.N, Ready: ready,
		})
	}()
	addr := <-ready
	b.SetBytes(size)
	b.ResetTimer()
	sent := 0
	err := RunSender(SenderOptions{
		Cfg: senderCfg(0, 1), Topo: topo, Peers: []string{addr},
		Source: func() []byte {
			if sent == b.N {
				return nil
			}
			off := sent % ringLen * size
			sent++
			return ring[off : off+size]
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		b.Fatal(err)
	}
}
