package lz4_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"numastream/internal/lz4"
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
	dst := make([]byte, lz4.CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lz4.CompressBlock(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressBlockHC(b *testing.B) {
	src := benchCorpus(1 << 20)
	dst := make([]byte, lz4.CompressBound(len(src)))
	for _, depth := range []int{4, 64, 256} {
		b.Run(depthName(depth), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := lz4.CompressBlockHC(src, dst, depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 4:
		return "depth4"
	case 64:
		return "depth64"
	default:
		return "depth256"
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	src := benchCorpus(1 << 20)
	packed := lz4.Compress(src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lz4.DecompressBlock(packed, dst); err != nil {
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

// tomoBlocks cuts the projections into the two block sizes the
// streaming workloads compress: whole 1 MiB chunks (tomo_stream,
// paced_latency) and 16 KiB slices (small_chunk_fanin).
var tomoBlocks = []struct {
	name string
	size int
}{{"1MiB", 1 << 20}, {"16KiB", 16 << 10}}

func tomoCorpus(size int) (blocks, packed [][]byte) {
	for _, p := range tomoProjections(4) {
		for off := 0; off+size <= len(p); off += size {
			blocks = append(blocks, p[off:off+size])
			packed = append(packed, lz4.Compress(p[off:off+size]))
		}
	}
	return blocks, packed
}

// reportShape reports what the kernels' per-sequence cost is paid for:
// the compression ratio and the number of sequences per raw MiB.
func reportShape(b *testing.B, blocks, packed [][]byte) {
	var raw, wire, seqs int
	for i, p := range packed {
		s, err := lz4.ParseBlock(p)
		if err != nil {
			b.Fatal(err)
		}
		raw += len(blocks[i])
		wire += len(p)
		seqs += len(s)
	}
	b.ReportMetric(float64(raw)/float64(wire), "ratio")
	b.ReportMetric(float64(seqs)/(float64(raw)/(1<<20)), "seqs/MiB")
}

func BenchmarkCompressTomo(b *testing.B) {
	for _, tb := range tomoBlocks {
		b.Run(tb.name, func(b *testing.B) {
			blocks, packed := tomoCorpus(tb.size)
			dst := make([]byte, lz4.CompressBound(tb.size))
			b.SetBytes(int64(tb.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lz4.CompressBlock(blocks[i%len(blocks)], dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportShape(b, blocks, packed)
		})
	}
}

func BenchmarkDecompressTomo(b *testing.B) {
	for _, tb := range tomoBlocks {
		b.Run(tb.name, func(b *testing.B) {
			blocks, packed := tomoCorpus(tb.size)
			// Exactly the raw length, like the pipeline's buffer lease.
			dst := make([]byte, tb.size)
			b.SetBytes(int64(tb.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lz4.DecompressBlock(packed[i%len(packed)], dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportShape(b, blocks, packed)
		})
	}
}
