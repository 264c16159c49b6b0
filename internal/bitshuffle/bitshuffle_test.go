package bitshuffle

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveEncode is the format as DESIGN.md states it, one bit at a time:
// bit j of byte g of bit-plane b of byte-plane p is bit b of byte p of
// sample 8g+j, planes in the order (p, b), the tail copied.
func naiveEncode(src []byte) []byte {
	m := len(src) &^ 15
	q := m / 16
	dst := make([]byte, len(src))
	for p := 0; p < 2; p++ {
		for b := 0; b < 8; b++ {
			plane := dst[(8*p+b)*q:]
			for g := 0; g < q; g++ {
				for j := 0; j < 8; j++ {
					bit := src[2*(8*g+j)+p] >> b & 1
					plane[g] |= bit << j
				}
			}
		}
	}
	copy(dst[m:], src[m:])
	return dst
}

// code runs Encode or Decode on the portable path or, with kernel set,
// on whichever path the CPU supports.
func code(f func(dst, src []byte), src []byte, kernel bool) []byte {
	if !kernel {
		defer ForcePortable()()
	}
	dst := make([]byte, len(src))
	f(dst, src)
	return dst
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkAll asserts, for one input: the portable encoder matches the
// format; the kernels (where present) match the portable code byte for
// byte both ways; and every encoder/decoder pairing round-trips.
func checkAll(t *testing.T, src []byte, naive bool) {
	t.Helper()
	enc := code(Encode, src, false)
	if naive {
		if want := naiveEncode(src); !bytes.Equal(enc, want) {
			t.Fatalf("len %d: portable Encode differs from the format", len(src))
		}
	}
	if dec := code(Decode, enc, false); !bytes.Equal(dec, src) {
		t.Fatalf("len %d: portable round trip differs", len(src))
	}
	if !haveKernels {
		return
	}
	kenc := code(Encode, src, true)
	if !bytes.Equal(kenc, enc) {
		t.Fatalf("len %d: kernel Encode differs from the portable code", len(src))
	}
	if kdec := code(Decode, enc, true); !bytes.Equal(kdec, src) {
		t.Fatalf("len %d: kernel Decode differs from the portable code", len(src))
	}
	// Decode of arbitrary bytes (not an encoder's output) must agree too.
	if !bytes.Equal(code(Decode, src, true), code(Decode, src, false)) {
		t.Fatalf("len %d: kernel Decode of raw bytes differs from the portable code", len(src))
	}
}

// TestEveryLength: every length 0…4096, so every remainder of groups past
// the kernels' 64-sample blocks and every tail length is covered.
func TestEveryLength(t *testing.T) {
	if !haveKernels {
		t.Log("no AVX-512 VBMI on this CPU: checking the portable code alone")
	}
	src := randomBytes(4096, 1)
	for n := 0; n <= len(src); n++ {
		checkAll(t, src[:n], n <= 1024 || n%61 == 0)
	}
}

// TestLargeAndMisaligned: a 1 MiB chunk, and sub-slices starting at every
// offset 1…15 into a buffer, so neither kernel relies on alignment.
func TestLargeAndMisaligned(t *testing.T) {
	src := randomBytes(1<<20, 2)
	checkAll(t, src, true)
	buf := randomBytes(8192+32, 3)
	for off := 1; off < 16; off++ {
		for _, n := range []int{128, 1000, 8192} {
			checkAll(t, buf[off:off+n], true)
		}
	}
}

// TestDecodeIntoMisaligned: the kernels write through sub-slices at any
// offset and leave the bytes around them alone.
func TestDecodeIntoMisaligned(t *testing.T) {
	src := randomBytes(4096, 4)
	enc := code(Encode, src, false)
	for off := 0; off < 16; off++ {
		out := bytes.Repeat([]byte{0xa5}, len(src)+32)
		Decode(out[off:off+len(src)], enc)
		if !bytes.Equal(out[off:off+len(src)], src) {
			t.Fatalf("offset %d: decode differs", off)
		}
		for i, c := range out {
			if (i < off || i >= off+len(src)) && c != 0xa5 {
				t.Fatalf("offset %d: byte %d outside dst written", off, i)
			}
		}
	}
}

func TestTranspose8Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		if transpose8(transpose8(x)) != x {
			t.Fatalf("transpose8 is not its own inverse at %#x", x)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with mismatched lengths did not panic")
		}
	}()
	Encode(make([]byte, 16), make([]byte, 32))
}

// FuzzBitshuffle: `go test -fuzz=FuzzBitshuffle ./internal/bitshuffle`
// (`make lz4-fuzz` runs it for 15 s). Under plain `go test` the seeds
// below run as regression tests.
func FuzzBitshuffle(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add(randomBytes(17, 6), uint8(1))
	f.Add(randomBytes(128, 7), uint8(0))
	f.Add(randomBytes(1000, 8), uint8(3))
	f.Add(bytes.Repeat([]byte{0x12, 0x03}, 700), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		o := int(off) % 16
		if o > len(data) {
			o = len(data)
		}
		checkAll(t, data[o:], len(data) <= 4096)
	})
}
