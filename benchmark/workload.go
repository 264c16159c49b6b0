package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"numastream/internal/tomo"
)

// ringBufBytes is the size of one input buffer. A run cycles a seeded
// ring of these; at the default 64 buffers the working set is 64 MiB,
// below this host's 260 MiB L3 (see README).
const ringBufBytes = 1 << 20

// workload is one fixed traffic shape. The names are permanent: later
// changes are compared under them.
type workload struct {
	name      string
	chunk     int     // bytes per chunk handed to the pipeline
	senders   int     // sender nodes = streams = TCP connections
	compress  bool    // configs generated with compression stages
	tomo      bool    // input is tomo projections (else seeded random bytes)
	shards    int     // > 0: sharded gateway path with the exactly-once ledger
	ratePerSc float64 // > 0: open loop, chunks due per second; 0: closed loop
	window    int     // closed loop: chunks each sender may have outstanding
}

var workloads = []workload{
	{name: "tomo_stream", chunk: ringBufBytes, senders: 1, compress: true, tomo: true, window: 32},
	{name: "raw_passthrough", chunk: ringBufBytes, senders: 1, window: 16},
	{name: "small_chunk_fanin", chunk: 16 << 10, senders: 2, compress: true, tomo: true, shards: 2, window: 64},
	{name: "paced_latency", chunk: ringBufBytes, senders: 1, compress: true, tomo: true, ratePerSc: 60},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// oracle holds a run's inputs and the reference they are checked
// against: the ring, one 64-bit checksum per chunk-sized slice of it,
// and the seed-derived order in which each stream walks the slices.
type oracle struct {
	ring   []byte
	chunk  int
	sums   []uint64 // sums[i] covers ring[i*chunk:(i+1)*chunk]
	start  []uint64 // per stream
	stride []uint64 // per stream, odd, so a stream visits every slice
}

// fillRing writes the workload's inputs for seed into ring (a whole
// number of ringBufBytes buffers, a power of two of them).
func fillRing(ring []byte, w workload, seed int64) {
	if !w.tomo {
		rand.New(rand.NewSource(seed)).Read(ring)
		return
	}
	// 1024×512 uint16 projections of a seeded sphere phantom with the
	// package's calibrated noise: LZ4 ≈ 2.1:1, the paper's ratio.
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height, cfg.Seed = 1024, 512, seed
	phantom := tomo.RandomPhantom(seed, 60)
	n := len(ring) / ringBufBytes
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		copy(ring[i*ringBufBytes:], tomo.Projection(phantom, theta, cfg))
	}
}

func newOracle(ring []byte, w workload, seed int64) *oracle {
	o := &oracle{ring: ring, chunk: w.chunk}
	n := len(ring) / w.chunk
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("ring of %d chunks is not a power of two", n))
	}
	o.sums = make([]uint64, n)
	for i := range o.sums {
		o.sums[i] = sum64(ring[i*w.chunk : (i+1)*w.chunk])
	}
	for s := 0; s < w.senders; s++ {
		x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(s))
		o.start = append(o.start, x)
		o.stride = append(o.stride, splitmix64(x)|1)
	}
	return o
}

// index is the ring slice chunk (stream, seq) carries: a pure function
// of the seed.
func (o *oracle) index(stream uint32, seq uint64) int {
	return int((o.start[stream] + seq*o.stride[stream]) & uint64(len(o.sums)-1))
}

func (o *oracle) data(stream uint32, seq uint64) []byte {
	i := o.index(stream, seq)
	return o.ring[i*o.chunk : (i+1)*o.chunk]
}

// check reports whether data is exactly what (stream, seq) was sent as.
func (o *oracle) check(stream uint32, seq uint64, data []byte) bool {
	return len(data) == o.chunk && sum64(data) == o.sums[o.index(stream, seq)]
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// sum64 is the oracle's content checksum: four independent
// multiply-rotate lanes over 8-byte words, so verifying a chunk costs a
// small fraction of moving it (the Sink runs it on every delivery,
// inside the measured CPU). It is not the pipeline's CRC, so a fault
// the CRC misses is not missed twice.
func sum64(b []byte) uint64 {
	const m = 0x9e3779b185ebca87
	h0, h1, h2, h3 := uint64(len(b)), uint64(0xc2b2ae3d27d4eb4f), uint64(0x165667b19e3779f9), uint64(0x27d4eb2f165667c5)
	for len(b) >= 32 {
		h0 = bits.RotateLeft64(h0^binary.LittleEndian.Uint64(b), 29) * m
		h1 = bits.RotateLeft64(h1^binary.LittleEndian.Uint64(b[8:]), 29) * m
		h2 = bits.RotateLeft64(h2^binary.LittleEndian.Uint64(b[16:]), 29) * m
		h3 = bits.RotateLeft64(h3^binary.LittleEndian.Uint64(b[24:]), 29) * m
		b = b[32:]
	}
	for _, c := range b {
		h0 = bits.RotateLeft64(h0^uint64(c), 29) * m
	}
	return splitmix64(h0 ^ bits.RotateLeft64(h1, 17) ^ bits.RotateLeft64(h2, 31) ^ bits.RotateLeft64(h3, 47))
}
