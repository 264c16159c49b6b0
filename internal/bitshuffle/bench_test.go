package bitshuffle

import (
	"math"
	"testing"

	"numastream/internal/lz4"
	"numastream/internal/tomo"
)

// projection returns one seeded 1 MiB projection (1024×512 uint16),
// generated the way the repository benchmark fills its input ring.
func projection(seed int64) []byte {
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height, cfg.Seed = 1024, 512, seed
	return tomo.Projection(tomo.RandomPhantom(seed, 60), math.Pi/3, cfg)
}

var sizes = []struct {
	name string
	n    int
}{{"1MiB", 1 << 20}, {"16KiB", 16 << 10}}

func paths(b *testing.B, run func(b *testing.B)) {
	b.Run("kernel", func(b *testing.B) {
		if !Vectorized() {
			b.Skip("no AVX-512 VBMI on this CPU")
		}
		run(b)
	})
	b.Run("portable", func(b *testing.B) {
		defer ForcePortable()()
		run(b)
	})
}

func BenchmarkEncode(b *testing.B) {
	src := projection(1)
	for _, s := range sizes {
		b.Run(s.name, func(b *testing.B) {
			paths(b, func(b *testing.B) {
				dst := make([]byte, s.n)
				b.SetBytes(int64(s.n))
				for i := 0; i < b.N; i++ {
					Encode(dst, src[:s.n])
				}
			})
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	src := projection(1)
	for _, s := range sizes {
		b.Run(s.name, func(b *testing.B) {
			paths(b, func(b *testing.B) {
				planes, dst := make([]byte, s.n), make([]byte, s.n)
				Encode(planes, src[:s.n])
				b.SetBytes(int64(s.n))
				for i := 0; i < b.N; i++ {
					Decode(dst, planes)
				}
			})
		})
	}
}

// slices cuts the projection into blocks of n bytes, the way the
// workloads chunk it (1 MiB: tomo_stream; 16 KiB: small_chunk_fanin).
func slices(p []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off+n <= len(p); off += n {
		out = append(out, p[off:off+n])
	}
	return out
}

// BenchmarkShuffleLZ4 is the sender's whole per-chunk cost with the
// filter on — transform, then LZ4 — and the wire ratio;
// BenchmarkCompressTomo in internal/lz4 is the same chunks without it.
func BenchmarkShuffleLZ4(b *testing.B) {
	p := projection(1)
	for _, s := range sizes {
		b.Run(s.name, func(b *testing.B) {
			blocks := slices(p, s.n)
			planes := make([]byte, s.n)
			out := make([]byte, lz4.CompressBound(s.n))
			wire := 0
			b.SetBytes(int64(s.n))
			for i := 0; i < b.N; i++ {
				Encode(planes, blocks[i%len(blocks)])
				n, err := lz4.CompressBlock(planes, out)
				if err != nil {
					b.Fatal(err)
				}
				wire += n
			}
			b.ReportMetric(float64(s.n)*float64(b.N)/float64(wire), "ratio")
		})
	}
}

// BenchmarkLZ4Unshuffle is the receiver's per-chunk cost: LZ4 into a
// scratch buffer, then the inverse transform into the output.
func BenchmarkLZ4Unshuffle(b *testing.B) {
	p := projection(1)
	for _, s := range sizes {
		b.Run(s.name, func(b *testing.B) {
			var packed [][]byte
			planes := make([]byte, s.n)
			for _, blk := range slices(p, s.n) {
				Encode(planes, blk)
				block := make([]byte, lz4.CompressBound(len(planes)))
				n, err := lz4.CompressBlock(planes, block)
				if err != nil {
					b.Fatal(err)
				}
				packed = append(packed, block[:n])
			}
			out := make([]byte, s.n)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lz4.DecompressBlock(packed[i%len(packed)], planes); err != nil {
					b.Fatal(err)
				}
				Decode(out, planes)
			}
		})
	}
}
