package lz4

import (
	"bytes"
	"testing"

	"numastream/internal/bitshuffle"
)

// Fuzz targets: `go test -fuzz=FuzzRoundTrip ./internal/lz4`. Under
// plain `go test` the seed corpus below runs as regression tests. Every
// kernel reads and writes against guard pages (guardmem.After), so an access
// past a buffer faults instead of passing silently.

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add(corpora()["projection"][:512])
	f.Fuzz(func(t *testing.T, src []byte) {
		// A legal block that both decoders turn back into src.
		roundTrip(t, src)
	})
}

// FuzzCompressMatchesGo holds the compressor this platform runs to the Go
// parse, byte for byte, with src and dst each against a guard page, and
// the literal-span parse to the same, over the spans cuts describe
// (spansFromCuts: fractions of the block, in pairs), which must also
// decode back to src through every decoder.
func FuzzCompressMatchesGo(f *testing.F) {
	proj := corpora()["projection"]
	planes := make([]byte, 4096)
	bitshuffle.Encode(planes, proj[:len(planes)])
	f.Add(planes, []byte(nil))
	zeroRuns := make([]byte, 3000)
	for i := 0; i < len(zeroRuns); i += 97 {
		copy(zeroRuns[i:], "noisy!!!")
	}
	f.Add(zeroRuns, []byte(nil))
	f.Add(bytes.Repeat([]byte("abc"), 500), []byte(nil))
	f.Add(bytes.Repeat([]byte("abcdefg\x00"), 300), []byte(nil))
	f.Add(bytes.Repeat([]byte{7}, 70000), []byte(nil)) // offsets past 65 535
	// Tomo bit-planes with their noise planes 4 and 5 as literals, as
	// the compress stage ships them; and spans at the block's start and
	// end, adjacent, and inside its last 12 bytes.
	tomoPlanes := make([]byte, 16<<10)
	bitshuffle.Encode(tomoPlanes, tomoProjections(1)[0][:len(tomoPlanes)])
	f.Add(tomoPlanes, []byte{64, 96})
	f.Add(tomoPlanes, []byte{0, 16, 240, 255})
	f.Add(tomoPlanes, []byte{64, 80, 80, 96})
	f.Add(planes, []byte{254, 255})
	f.Fuzz(func(t *testing.T, src, cuts []byte) {
		if got, want := compressGuarded(t, src), compressGo(src); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: CompressBlock wrote %d bytes, the Go parse %d, or the bytes differ", len(src), len(got), len(want))
		}
		if len(cuts) > 32 {
			cuts = cuts[:32]
		}
		literalRoundTrip(t, src, spansFromCuts(len(src), cuts))
	})
}

func FuzzDecompressNeverPanics(f *testing.F) {
	f.Add([]byte{0x60, 'a', 'b', 'c', 'd', 'e', 'f'}, 6)
	f.Add([]byte{0x1f, 'a', 0x01, 0x00, 0x00}, 20)
	f.Add([]byte{0xff, 0xff, 0xff}, 100)
	// Valid blocks to mutate, long enough for the fast loop to run.
	f.Add(compressGuarded(f, corpora()["projection"][:512]), 512)
	f.Add(compressGuarded(f, bytes.Repeat([]byte("abcabcd"), 40)), 280)
	// Bit-planes: long zero runs (extended match lengths) between short
	// noisy stretches, the shape the pipeline ships.
	planes := make([]byte, 4096)
	bitshuffle.Encode(planes, corpora()["projection"][:len(planes)])
	f.Add(compressGuarded(f, planes), len(planes))
	f.Fuzz(func(t *testing.T, junk []byte, size int) {
		if size < 0 || size > 1<<20 {
			return
		}
		// Must error or succeed, never panic or write out of bounds,
		// and do exactly what the byte-wise oracle does.
		diffDecode(t, junk, size)
	})
}
