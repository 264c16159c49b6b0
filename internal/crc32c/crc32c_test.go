package crc32c

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"numastream/internal/guardmem"
)

// seeds are the initial values every test sums from.
var seeds = []uint32{0, 0xdeadbeef}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// check fails unless Update and the kernel path (update, which takes the
// kernel at any length with a whole block) agree with hash/crc32 on p.
func check(t testing.TB, crc uint32, p []byte) {
	t.Helper()
	want := crc32.Update(crc, table, p)
	if got := Update(crc, p); got != want {
		t.Fatalf("Update(%#x, %d bytes) = %#08x, hash/crc32 says %#08x", crc, len(p), got, want)
	}
	if got := update(crc, p); got != want {
		t.Fatalf("kernel path (%#x, %d bytes) = %#08x, hash/crc32 says %#08x", crc, len(p), got, want)
	}
}

// testLengths: every length up to three blocks and a partial fourth (so
// every tail after 1, 2 and 3 blocks), the kernelMin and 1 KiB
// boundaries, and large inputs with and without a tail.
func testLengths() []int {
	var ns []int
	for n := 0; n <= 3*blockLen+255; n++ {
		ns = append(ns, n)
	}
	return append(ns, kernelMin-1, kernelMin, kernelMin+1, 1024, 1025, 16<<10, 1<<20, 1<<20+21)
}

// TestMatchesStdlib sums every test length at every source alignment
// 0–63 from every seed.
func TestMatchesStdlib(t *testing.T) {
	if !haveKernel {
		t.Log("no AVX-512 VPCLMULQDQ on this CPU: Update is hash/crc32 throughout")
	}
	src := randomBytes(1<<20+21+64, 1)
	for _, n := range testLengths() {
		for off := 0; off < 64; off++ {
			for _, s := range seeds {
				check(t, s, src[off:off+n])
			}
		}
	}
}

// TestGuardPages sums every buffer placed against a PROT_NONE page,
// ending at one and starting after one, so a kernel load outside
// [p, p+n) faults.
func TestGuardPages(t *testing.T) {
	src := randomBytes(1<<20+21, 2)
	for _, n := range testLengths() {
		for _, place := range []func(testing.TB, int) ([]byte, func()){guardmem.After, guardmem.Before} {
			b, free := place(t, n)
			copy(b, src)
			for _, s := range seeds {
				check(t, s, b)
			}
			free()
		}
	}
}

// TestRunningSum: summing in pieces, any split, gives the one-shot sum.
func TestRunningSum(t *testing.T) {
	src := randomBytes(64<<10, 3)
	want := crc32.Checksum(src, table)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		var crc uint32
		for p := src; len(p) > 0; {
			n := r.Intn(8<<10) + 1
			if n > len(p) {
				n = len(p)
			}
			crc = Update(crc, p[:n])
			p = p[n:]
		}
		if crc != want {
			t.Fatalf("split sum %#08x, want %#08x", crc, want)
		}
	}
	if got := Checksum(src); got != want {
		t.Fatalf("Checksum %#08x, want %#08x", got, want)
	}
}

// xPowMod returns x^n mod P for the Castagnoli polynomial, in normal
// (unreflected) bit order: bit i is the coefficient of x^i.
func xPowMod(n int) uint32 {
	const poly = 0x1edc6f41 // P without its x^32 term
	r := uint32(1)
	for ; n > 0; n-- {
		top := r & 0x80000000
		r <<= 1
		if top != 0 {
			r ^= poly
		}
	}
	return r
}

// TestFoldConstants derives the kernel's constants from the polynomial:
// folding a 128-bit lane forward by 2048 bits multiplies its low qword
// (the lane's high-degree half, in reflected order) by x^(2048+32) and
// its high qword by x^(2048−32); the extra x^32 between the two factors
// and the lane width comes from the carry-less product of reflected
// operands landing one bit low, which the shift left by one undoes.
func TestFoldConstants(t *testing.T) {
	if crc32.Castagnoli != 0x82f63b78 {
		t.Fatalf("hash/crc32 Castagnoli %#x: not the reflected 0x1edc6f41", crc32.Castagnoli)
	}
	k := func(n int) uint64 {
		var r uint32
		for v, i := xPowMod(n), 0; i < 32; i++ {
			r |= (v >> i & 1) << (31 - i)
		}
		return uint64(r) << 1
	}
	want := [2]uint64{k(2048 + 32), k(2048 - 32)}
	if fold2048 != want {
		t.Fatalf("fold2048 = %#x, derived %#x", fold2048, want)
	}
}

// FuzzCRC32C: `go test -fuzz=FuzzCRC32C ./internal/crc32c` (`make
// lz4-fuzz` runs it for 15 s) sums arbitrary bytes, from an arbitrary
// seed and alignment, against hash/crc32. Under plain `go test` the
// seeds below run as regression tests.
func FuzzCRC32C(f *testing.F) {
	f.Add([]byte(nil), uint32(0), uint8(0))
	f.Add(randomBytes(300, 5), uint32(0xdeadbeef), uint8(3))
	f.Add(randomBytes(1500, 6), uint32(1), uint8(17))
	f.Add(randomBytes(5000, 7), uint32(0xffffffff), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, crc uint32, off uint8) {
		o := int(off) % 64
		if o > len(data) {
			o = len(data)
		}
		check(t, crc, data[o:])
	})
}
