package lz4

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"numastream/internal/bitshuffle"
	"numastream/internal/tomo"
)

// benchCorpus mixes runs, periodic patterns and noise at roughly the
// 2:1 compressibility of projection data. Its runs are hundreds of
// bytes long, which flatters every codec: the Tomo benchmarks below are
// the ones shaped like the streaming workloads.
func benchCorpus(size int) []byte {
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	for b.Len() < size {
		switch rng.Intn(3) {
		case 0:
			b.Write(bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(400)+1))
		case 1:
			pat := make([]byte, rng.Intn(12)+2)
			rng.Read(pat)
			b.Write(bytes.Repeat(pat, rng.Intn(40)+1))
		default:
			noise := make([]byte, rng.Intn(300))
			rng.Read(noise)
			b.Write(noise)
		}
	}
	return b.Bytes()[:size]
}

func BenchmarkCompressBlock(b *testing.B) {
	src := benchCorpus(1 << 20)
	dst := make([]byte, CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressBlock(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	src := benchCorpus(1 << 20)
	packed := compressGuarded(b, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressBlock(packed, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// tomoProjections returns n seeded 1 MiB projections (1024×512 uint16),
// generated the way the repository benchmark fills its input ring.
func tomoProjections(n int) [][]byte {
	const seed = 1
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height, cfg.Seed = 1024, 512, seed
	phantom := tomo.RandomPhantom(seed, 60)
	out := make([][]byte, n)
	for i := range out {
		out[i] = tomo.Projection(phantom, 2*math.Pi*float64(i)/float64(n), cfg)
	}
	return out
}

// tomoShapes are the blocks the streaming workloads compress: whole
// 1 MiB chunks (tomo_stream, paced_latency) and 16 KiB slices
// (small_chunk_fanin), as samples and as the bit-planes the compress
// stage ships on every host with the bitshuffle kernels, and the same
// bit-planes with their noise planes 4 and 5 carried as literal spans, as
// the compress stage ships them on this corpus.
var tomoShapes = []struct {
	name    string
	size    int
	planes  bool
	literal bool
}{
	{"1MiB", 1 << 20, false, false},
	{"16KiB", 16 << 10, false, false},
	{"planes/1MiB", 1 << 20, true, false},
	{"planes/16KiB", 16 << 10, true, false},
	{"literal/1MiB", 1 << 20, true, true},
	{"literal/16KiB", 16 << 10, true, true},
}

// noisePlanes is planes 4 and 5 of a size-byte block's bit-planes as one
// literal span when literal is set.
func noisePlanes(size int, literal bool) []Span {
	if !literal {
		return nil
	}
	return []Span{{4 * size / 16, 6 * size / 16}}
}

// tomoCorpus cuts four projections into blocks of size bytes, each
// bitshuffled on its own when planes is set, as the compress stage
// transforms each chunk, and compresses them with lits as literals.
func tomoCorpus(size int, planes bool, lits []Span) (blocks, packed [][]byte) {
	for _, p := range tomoProjections(4) {
		for off := 0; off+size <= len(p); off += size {
			blk := p[off : off+size]
			if planes {
				pl := make([]byte, size)
				bitshuffle.Encode(pl, blk)
				blk = pl
			}
			blocks = append(blocks, blk)
			dst := make([]byte, CompressBound(size))
			n, err := CompressBlockLiterals(blk, dst, lits)
			if err != nil {
				panic(err)
			}
			packed = append(packed, dst[:n])
		}
	}
	return blocks, packed
}

// reportShape reports what the kernels' per-sequence cost is paid for,
// the compression ratio and the number of sequences per raw MiB, and
// returns the sequences.
func reportShape(b *testing.B, blocks, packed [][]byte) []Sequence {
	var raw, wire int
	var seqs []Sequence
	for i, p := range packed {
		s, err := parseBlock(p)
		if err != nil {
			b.Fatal(err)
		}
		raw += len(blocks[i])
		wire += len(p)
		seqs = append(seqs, s...)
	}
	b.ReportMetric(float64(raw)/float64(wire), "ratio")
	b.ReportMetric(float64(len(seqs))/(float64(raw)/(1<<20)), "seqs/MiB")
	return seqs
}

// BenchmarkCompressTomo times the compressor this platform runs and
// BenchmarkCompressTomoGo the Go one on the same blocks, so
// `-bench 'CompressTomo/planes/1MiB'` prints the speed-up. Both report
// the share of sequences the Go parse emits inline (at most 8
// literals, no length extension); the assembly has one emit path.
func BenchmarkCompressTomo(b *testing.B)   { benchCompressTomo(b, false) }
func BenchmarkCompressTomoGo(b *testing.B) { benchCompressTomo(b, true) }

func benchCompressTomo(b *testing.B, goParse bool) {
	for _, sh := range tomoShapes {
		b.Run(sh.name, func(b *testing.B) {
			lits := noisePlanes(sh.size, sh.literal)
			blocks, packed := tomoCorpus(sh.size, sh.planes, lits)
			dst := make([]byte, CompressBound(sh.size))
			b.SetBytes(int64(sh.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compressSpans(blocks[i%len(blocks)], dst, lits, goParse)
			}
			b.StopTimer()
			seqs := reportShape(b, blocks, packed)
			inline := 0
			for _, q := range seqs {
				if q.LitLen <= 8 && q.MatchLen < minMatch+15 {
					inline++
				}
			}
			b.ReportMetric(100*float64(inline)/float64(len(seqs)), "inline%")
		})
	}
}

// BenchmarkDecompressTomo times DecompressBlock with the fast loop this
// platform runs and BenchmarkDecompressTomoGo with the Go one. Both
// report the share of sequences their fast loop decoded; the careful
// loop took the rest, the final literals always among them.
func BenchmarkDecompressTomo(b *testing.B)   { benchDecompressTomo(b, decodeSequences) }
func BenchmarkDecompressTomoGo(b *testing.B) { benchDecompressTomo(b, decodeSequencesGo) }

func benchDecompressTomo(b *testing.B, fast func(dst, src []byte, di, si int) (int, int)) {
	for _, sh := range tomoShapes {
		b.Run(sh.name, func(b *testing.B) {
			blocks, packed := tomoCorpus(sh.size, sh.planes, noisePlanes(sh.size, sh.literal))
			// Exactly the raw length, like the pipeline's buffer lease.
			dst := make([]byte, sh.size)
			b.SetBytes(int64(sh.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decompress(packed[i%len(packed)], dst, fast); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			seqs := reportShape(b, blocks, packed)
			// Each call of fast but the first follows one sequence
			// decoded by the careful loop, and the careful loop
			// always decodes the last.
			careful := 0
			counted := func(dst, src []byte, di, si int) (int, int) {
				careful++
				return fast(dst, src, di, si)
			}
			for _, p := range packed {
				if _, err := decompress(p, dst, counted); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*float64(len(seqs)-careful)/float64(len(seqs)), "inline%")
		})
	}
}
