package crc32c

import (
	"fmt"
	"hash/crc32"
	"testing"
)

var sink uint32

// sums are the two ways to sum a buffer: this package and hash/crc32.
var sums = []struct {
	name string
	sum  func(crc uint32, p []byte) uint32
}{
	{"kernel", Update},
	{"stdlib", func(crc uint32, p []byte) uint32 { return crc32.Update(crc, table, p) }},
}

// BenchmarkChecksum: a hot 1 MiB buffer; 1 MiB chunks walked round a
// 64 MiB ring, so each is read cold from memory the way the sender's
// feeder first reads a source chunk; and one 3 000-byte payload.
// "kernel" is Update (hash/crc32 on hosts without the kernel), "stdlib"
// hash/crc32.
func BenchmarkChecksum(b *testing.B) {
	ring := randomBytes(64<<20, 1)
	cases := []struct {
		name   string
		n, buf int
	}{
		{"hot1MiB", 1 << 20, 1 << 20},
		{"cold1MiB", 1 << 20, len(ring)},
		{"3000B", 3000, 3000},
	}
	for _, c := range cases {
		for _, s := range sums {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				b.SetBytes(int64(c.n))
				off := 0
				for i := 0; i < b.N; i++ {
					sink = s.sum(0, ring[off:off+c.n])
					if off += c.n; off+c.n > c.buf {
						off = 0
					}
				}
			})
		}
	}
}

// BenchmarkCrossover times the kernel path (update, whatever the length)
// against hash/crc32 on short hot inputs; kernelMin is the first length
// where the kernel wins.
func BenchmarkCrossover(b *testing.B) {
	if !haveKernel {
		b.Skip("no AVX-512 VPCLMULQDQ on this CPU")
	}
	src := randomBytes(8<<10, 2)
	for _, n := range []int{256, 512, 640, 768, 1024, 2048, 4096} {
		for _, s := range []struct {
			name string
			sum  func(crc uint32, p []byte) uint32
		}{{"kernel", update}, sums[1]} {
			b.Run(fmt.Sprintf("%d/%s", n, s.name), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					sink = s.sum(0, src[:n])
				}
			})
		}
	}
}
