package pipeline

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"testing"

	"numastream/internal/bitshuffle"
	"numastream/internal/bufpool"
	"numastream/internal/lz4"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/tomo"
)

var (
	projectionsOnce sync.Once
	projections     [][]byte
)

// projectionChunk returns size bytes of seeded projection i (of three,
// each a 1 MiB 1024×512 uint16 frame like the benchmark's tomo input).
func projectionChunk(i, size int) []byte {
	projectionsOnce.Do(func() {
		cfg := tomo.DefaultProjectionConfig()
		cfg.Width, cfg.Height, cfg.Seed = 1024, 512, 1
		phantom := tomo.RandomPhantom(1, 60)
		for k := 0; k < 3; k++ {
			projections = append(projections, tomo.Projection(phantom, 2*math.Pi*float64(k)/3, cfg))
		}
	})
	p := projections[i%len(projections)]
	off := (i / len(projections) * size) % (len(p) - size + 1)
	return append([]byte(nil), p[off:off+size]...)
}

// TestShuffledFrameCRC: a bitshuffled frame's header CRC covers the
// payload and then the flags byte, so it is not the payload's CRC — the
// sum a receiver that predates the filter checks, which therefore
// quarantines the frame instead of delivering bit-planes as samples.
func TestShuffledFrameCRC(t *testing.T) {
	if !bitshuffle.Vectorized() {
		t.Skip("no vector bitshuffle on this CPU: the sender never filters")
	}
	z := newCompressor(SenderOptions{Metrics: metrics.NewRegistry()}, nil, 0)
	defer z.close()
	c := Chunk{Data: projectionChunk(0, 1<<20), RawLen: 1 << 20}
	if err := z.compress(&c); err != nil {
		t.Fatal(err)
	}
	if !c.Packed || !c.Shuffled {
		t.Fatalf("projection chunk shipped packed=%v shuffled=%v, want both", c.Packed, c.Shuffled)
	}
	_, sum, err := decodeHeader(encodeHeader(c, c.crc))
	if err != nil {
		t.Fatal(err)
	}
	plain := crc32.Checksum(c.Data, crcTable)
	if sum == plain {
		t.Fatalf("header CRC %08x equals the payload's CRC: a pre-filter receiver would deliver planes", sum)
	}
	if want := crc32.Update(plain, crcTable, []byte{flagPacked | flagShuffled}); sum != want {
		t.Fatalf("header CRC %08x, want CRC-32C of payload then flags byte %08x", sum, want)
	}
}

// TestBitshuffleSelection: a compress worker filters the data the filter
// helps and nothing else. On projections chunks go out bitshuffled; on
// text (this repository's DESIGN.md) and random bytes none do — those
// pay only the trials, one chunk in trialEvery.
func TestBitshuffleSelection(t *testing.T) {
	const chunks, size = 2*trialEvery + 2, 16 << 10
	text, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name     string
		data     func(i int) []byte
		filtered bool
	}{
		{"projection", func(i int) []byte { return projectionChunk(i, size) }, true},
		{"text", func(i int) []byte {
			off := i * size % (len(text) - size)
			return append([]byte(nil), text[off:off+size]...)
		}, false},
		{"random", func(i int) []byte {
			b := make([]byte, size)
			rand.New(rand.NewSource(int64(i))).Read(b)
			return b
		}, false},
	}
	for _, src := range sources {
		src := src
		t.Run(src.name, func(t *testing.T) {
			want := make([][]byte, chunks)
			for i := range want {
				want[i] = src.data(i)
			}
			got := make(map[uint64][]byte)
			addr, _, recvDone := startReceiver(t, 1, chunks, func(o *ReceiverOptions) { o.Sink = keepSink(got) })
			sReg := metrics.NewRegistry()
			next := 0
			if err := RunSender(SenderOptions{
				Cfg: senderCfg(1, 1), Topo: testTopo(), Peers: []string{addr}, Metrics: sReg,
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
			if err := <-recvDone; err != nil {
				t.Fatalf("RunReceiver: %v", err)
			}
			for i, w := range want {
				if !bytes.Equal(got[uint64(i)], w) {
					t.Fatalf("chunk %d not delivered intact", i)
				}
			}
			shuffled, trials := sReg.CounterValue(CtrChunksBitshuffled), sReg.CounterValue(CtrBitshuffleTrials)
			t.Logf("%s: %d of %d chunks bitshuffled, %d trials", src.name, shuffled, chunks, trials)
			if !bitshuffle.Vectorized() {
				if shuffled != 0 || trials != 0 {
					t.Fatalf("without the vector encoder: %d bitshuffled, %d trials, want 0 and 0", shuffled, trials)
				}
				return
			}
			if wantTrials := int64((chunks + trialEvery - 1) / trialEvery); trials != wantTrials {
				t.Errorf("trials = %d, want %d (first chunk and every %dth)", trials, wantTrials, trialEvery)
			}
			switch {
			case src.filtered && shuffled == 0:
				t.Errorf("no projection chunk went out bitshuffled")
			case !src.filtered && shuffled != 0:
				t.Errorf("%d %s chunks went out bitshuffled, want 0", shuffled, src.name)
			}
		})
	}
}

// shuffledMessage is a well-formed bitshuffled frame carrying raw.
func shuffledMessage(t *testing.T, seq uint64, raw []byte) msgq.Message {
	planes := make([]byte, len(raw))
	bitshuffle.Encode(planes, raw)
	block := make([]byte, lz4.CompressBound(len(planes)))
	n, err := lz4.CompressBlock(planes, block)
	if err != nil {
		t.Fatalf("CompressBlock: %v", err)
	}
	block = block[:n]
	c := Chunk{Seq: seq, RawLen: len(raw), Packed: true, Shuffled: true}
	return msgq.Message{encodeHeader(c, wireCRC(block, c.flags())), block}
}

// TestReceiverPortableDecode: a receiver decodes bitshuffled frames with
// the portable Go code — the path every receiver without AVX-512 takes —
// with lengths that leave groups and tail bytes past
// the kernels' 64-sample blocks.
func TestReceiverPortableDecode(t *testing.T) {
	sizes := []int{1 << 20, 16<<10 + 16*7 + 5, 100}
	var msgs []msgq.Message
	var want [][]byte
	for i, n := range sizes {
		raw := projectionChunk(i, n)
		want = append(want, raw)
		msgs = append(msgs, shuffledMessage(t, uint64(i), raw))
	}
	defer bitshuffle.ForcePortable()()
	pool := bufpool.New(1)
	got := make(map[uint64][]byte)
	addr, reg, done := startReceiver(t, 1, len(msgs), func(o *ReceiverOptions) {
		o.Sink = keepSink(got)
		o.BufPool = pool
	})
	push := newTestPush(t, addr)
	for _, m := range msgs {
		if err := push.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	if n := reg.CounterValue(CtrQuarantined); n != 0 {
		t.Fatalf("chunks_quarantined = %d, want 0", n)
	}
	for i, w := range want {
		if !bytes.Equal(got[uint64(i)], w) {
			t.Fatalf("chunk %d (%d bytes) not delivered intact", i, len(w))
		}
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("bufpool has %d leases outstanding after the run", n)
	}
}

// TestLiteralPlanes: the trial picks the literal planes by measurement.
// On the default projections that is the noise plane 4 and the
// mostly-noise plane 5; with four times the detector noise the noise
// reaches plane 6 too. Chunks after the trial carry those planes as
// literal runs (counted in planes_literal), decode intact, and cost more
// wire bytes than the trial's full parse.
func TestLiteralPlanes(t *testing.T) {
	if !bitshuffle.Vectorized() {
		t.Skip("no vector bitshuffle on this CPU: the sender never filters")
	}
	const size = 1 << 20
	noisy := func(sigma float64) func(i int) []byte {
		cfg := tomo.DefaultProjectionConfig()
		cfg.Width, cfg.Height, cfg.NoiseSigma = 1024, 512, sigma
		phantom := tomo.RandomPhantom(1, 60)
		return func(i int) []byte { return tomo.Projection(phantom, float64(i), cfg) }
	}
	cases := []struct {
		name    string
		data    func(i int) []byte
		literal uint16
	}{
		{"default noise", func(i int) []byte { return projectionChunk(i, size) }, 1<<4 | 1<<5},
		{"4x noise", noisy(48), 1<<4 | 1<<5 | 1<<6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			pool := bufpool.New(1)
			z := newCompressor(SenderOptions{Metrics: reg}, pool, 0)
			var wire [3]int
			for i := range wire {
				raw := tc.data(i)
				c := Chunk{Seq: uint64(i), Data: raw, RawLen: len(raw)}
				if err := z.compress(&c); err != nil {
					t.Fatal(err)
				}
				if !c.Packed || !c.Shuffled {
					t.Fatalf("chunk %d shipped packed=%v shuffled=%v", i, c.Packed, c.Shuffled)
				}
				wire[i] = len(c.Data)
				got := c
				got.Data = bytes.Clone(c.Data)
				c.lease.Release()
				planes := &leaseScratch{pool: pool}
				if err := decompress(&got, pool, 0, planes); err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
				if !bytes.Equal(got.Data, raw) {
					t.Fatalf("chunk %d not decoded intact", i)
				}
				got.lease.Release()
				planes.release()
			}
			if z.literal != tc.literal {
				t.Fatalf("literal planes %016b, want %016b", z.literal, tc.literal)
			}
			n := int64(bits.OnesCount16(tc.literal))
			if got := reg.CounterValue(CtrPlanesLiteral); got != 2*n {
				t.Fatalf("planes_literal = %d after two chunks past the trial, want %d", got, 2*n)
			}
			t.Logf("wire bytes: trial %d, then %d and %d", wire[0], wire[1], wire[2])
			if wire[1] <= wire[0]*9/10 || wire[1] > wire[0]*3/2 {
				t.Errorf("chunk 1 with %d literal planes: %d wire bytes against the trial's %d", n, wire[1], wire[0])
			}
			z.close()
			if out := pool.Outstanding(); out != 0 {
				t.Fatalf("%d leases outstanding", out)
			}
		})
	}
}
