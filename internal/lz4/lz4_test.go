package lz4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"numastream/internal/guardmem"
	"numastream/internal/tomo"
)

// roundTrip compresses src, checks the block is the Go parse's byte for
// byte and a legal one, and decodes it with every decoder.
func roundTrip(t testing.TB, src []byte) {
	t.Helper()
	block := compressGuarded(t, src)
	if want := compressGo(src); !bytes.Equal(block, want) {
		t.Fatalf("%d bytes: CompressBlock wrote %d bytes, the Go parse %d, or the bytes differ", len(src), len(block), len(want))
	}
	checkLegalBlock(t, src, block)
	got := diffDecode(t, block, len(src))
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
}

// compressGuarded runs CompressBlock with src against a guard page and
// exactly CompressBound bytes of dst against another, so a read or write
// past either faults, and returns a copy of the block.
func compressGuarded(t testing.TB, src []byte) []byte {
	t.Helper()
	in, freeIn := guardmem.After(t, len(src))
	defer freeIn()
	copy(in, src)
	out, freeOut := guardmem.After(t, CompressBound(len(src)))
	defer freeOut()
	n, err := CompressBlock(in, out)
	if err != nil {
		t.Fatalf("CompressBlock: %v", err)
	}
	return bytes.Clone(out[:n])
}

// compressGo is CompressBlock with the Go parse.
func compressGo(src []byte) []byte {
	dst := make([]byte, CompressBound(len(src)))
	if len(src) < mfLimit {
		n, _ := CompressBlock(src, dst) // no parse runs
		return dst[:n]
	}
	return dst[:compressSpans(src, dst, nil, true)]
}

// referenceDecode is the decoder this package had before its fast loop:
// one sequence at a time, every length checked before every copy,
// overlapping matches byte by byte. It is the oracle DecompressBlock is
// compared against, on valid and on malformed blocks.
func referenceDecode(src, dst []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++

		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, si, err = readLenExt(src, si, litLen)
			if err != nil {
				return 0, err
			}
		}
		if litLen > 0 {
			if si+litLen > len(src) {
				return 0, fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, litLen)
			}
			if di+litLen > len(dst) {
				return 0, ErrDstTooSmall
			}
			copy(dst[di:], src[si:si+litLen])
			si += litLen
			di += litLen
		}
		if si == len(src) {
			return di, nil
		}

		if si+2 > len(src) {
			return 0, fmt.Errorf("%w: truncated match offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if offset == 0 {
			return 0, fmt.Errorf("%w: zero match offset", ErrCorrupt)
		}
		if offset > di {
			return 0, fmt.Errorf("%w: match offset %d exceeds output position %d", ErrCorrupt, offset, di)
		}

		mLen := int(token & 0xf)
		if mLen == 15 {
			var err error
			mLen, si, err = readLenExt(src, si, mLen)
			if err != nil {
				return 0, err
			}
		}
		mLen += minMatch
		if di+mLen > len(dst) {
			return 0, ErrDstTooSmall
		}
		for i := 0; i < mLen; i++ {
			dst[di] = dst[di-offset]
			di++
		}
	}
	return di, nil
}

// decoders are DecompressBlock and the same careful loop over the Go fast
// loop (one and the same off amd64).
var decoders = []struct {
	name   string
	decode func(src, dst []byte) (int, error)
}{
	{"DecompressBlock", DecompressBlock},
	{"Go fast loop", func(src, dst []byte) (int, error) { return decompress(src, dst, decodeSequencesGo) }},
}

// diffDecode decodes block with each of decoders and with the oracle.
// The decoders read block from against a guard page and write into
// exactly size bytes against another — what the pipeline's lease gives
// them, so neither fast loop may assume slack, and an access past either
// buffer faults. It fails unless every decoder returns the oracle's
// count and bytes, or the same kind of error as the oracle, and returns
// the decoded bytes (nil on error).
func diffDecode(t testing.TB, block []byte, size int) []byte {
	t.Helper()
	want := make([]byte, size)
	wn, werr := referenceDecode(block, want)
	src, freeSrc := guardmem.After(t, len(block))
	defer freeSrc()
	copy(src, block)
	got, freeGot := guardmem.After(t, size)
	defer freeGot()
	for _, d := range decoders {
		for i := range got {
			got[i] = 0xa5 // a byte a decoder skips shows
		}
		gn, gerr := d.decode(src, got)
		if werr != nil || gerr != nil {
			if errors.Is(gerr, ErrCorrupt) != errors.Is(werr, ErrCorrupt) ||
				errors.Is(gerr, ErrDstTooSmall) != errors.Is(werr, ErrDstTooSmall) {
				t.Fatalf("size %d: %s error %v, oracle error %v\nblock %x", size, d.name, gerr, werr, block)
			}
			continue
		}
		if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
			t.Fatalf("size %d: %s returned %d bytes, oracle %d, or the bytes differ\nblock %x", size, d.name, gn, wn, block)
		}
	}
	if werr != nil {
		return nil
	}
	return want[:wn]
}

// checkLegalBlock parses block, the compressor's output for src, and
// checks the rules of the format a decoder may rely on.
func checkLegalBlock(t testing.TB, src, block []byte) {
	t.Helper()
	if len(block) > CompressBound(len(src)) {
		t.Fatalf("%d bytes compressed to %d, above CompressBound %d", len(src), len(block), CompressBound(len(src)))
	}
	if len(src) == 0 {
		if len(block) != 0 {
			t.Fatalf("empty input compressed to %d bytes", len(block))
		}
		return
	}
	seqs, err := parseBlock(block)
	if err != nil {
		t.Fatalf("parseBlock: %v", err)
	}
	last := seqs[len(seqs)-1]
	if last.MatchLen != 0 || last.Pos != len(src) {
		t.Fatalf("last sequence %+v does not end the %d input bytes with literals", last, len(src))
	}
	if last.LitLen < lastLiterals && last.LitLen < len(src) {
		t.Fatalf("last literal run is %d bytes, want >= %d", last.LitLen, lastLiterals)
	}
	for _, q := range seqs[:len(seqs)-1] {
		if q.Offset < 1 || q.Offset > maxOffset || q.Offset > q.Pos {
			t.Fatalf("sequence %+v: offset outside 1..min(%d, position)", q, maxOffset)
		}
		if q.Pos > len(src)-mfLimit {
			t.Fatalf("sequence %+v: match starts within %d bytes of the end (%d)", q, mfLimit, len(src))
		}
		if q.Pos+q.MatchLen > len(src)-lastLiterals {
			t.Fatalf("sequence %+v: match runs into the last %d bytes of %d", q, lastLiterals, len(src))
		}
	}
}

// corpora are the package's named unit inputs.
func corpora() map[string][]byte {
	c := map[string][]byte{
		"text":     []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 100)),
		"zeros":    bytes.Repeat([]byte{0}, 1<<16),
		"same":     bytes.Repeat([]byte{0xaa}, 12345),
		"abcdabcd": bytes.Repeat([]byte("abcdabcd"), 4096),
	}
	noise := make([]byte, 1<<15)
	rand.New(rand.NewSource(1)).Read(noise)
	c["noise"] = noise

	// Mix of runs, periodic patterns and noise, like detector frames.
	rng := rand.New(rand.NewSource(2))
	var b bytes.Buffer
	for b.Len() < 1<<18 {
		switch rng.Intn(3) {
		case 0:
			b.Write(bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(500)+1))
		case 1:
			pat := make([]byte, rng.Intn(9)+1)
			rng.Read(pat)
			b.Write(bytes.Repeat(pat, rng.Intn(50)+1))
		default:
			noise := make([]byte, rng.Intn(200))
			rng.Read(noise)
			b.Write(noise)
		}
	}
	c["structured"] = b.Bytes()

	// A pattern repeated far apart exercises the 64 KiB offset limit.
	block := make([]byte, 1000)
	rand.New(rand.NewSource(3)).Read(block)
	var far bytes.Buffer
	for i := 0; i < 100; i++ {
		far.Write(block)
		far.Write(bytes.Repeat([]byte{byte(i)}, 700))
	}
	c["far"] = far.Bytes()

	// A projection, the data the pipeline streams: short matches at
	// pixel (2, 4, 6) and row offsets, hardly any literals.
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height = 512, 128
	c["projection"] = tomo.Projection(tomo.RandomPhantom(1, 60), 0.3, cfg)
	return c
}

func TestRoundTripEmpty(t *testing.T) {
	n, err := CompressBlock(nil, make([]byte, CompressBound(0)))
	if err != nil {
		t.Fatalf("CompressBlock(nil): %v", err)
	}
	if n != 0 {
		t.Fatalf("compressed empty input to %d bytes, want 0", n)
	}
}

func TestRoundTripTiny(t *testing.T) {
	for i := 1; i < 20; i++ {
		roundTrip(t, bytes.Repeat([]byte{'x'}, i))
	}
}

func TestRoundTripCorpora(t *testing.T) {
	for name, src := range corpora() {
		t.Run(name, func(t *testing.T) { roundTrip(t, src) })
	}
}

func TestCompressionRatioOnRuns(t *testing.T) {
	src := bytes.Repeat([]byte("abcdabcd"), 4096)
	c := compressGuarded(t, src)
	if len(c)*10 > len(src) {
		t.Fatalf("highly repetitive input compressed to %d/%d bytes; expected >10x", len(c), len(src))
	}
}

func TestIncompressibleExpansionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 100000)
	rng.Read(src)
	c := compressGuarded(t, src)
	if len(c) > CompressBound(len(src)) {
		t.Fatalf("compressed size %d exceeds CompressBound %d", len(c), CompressBound(len(src)))
	}
}

func TestCompressBlockDstTooSmall(t *testing.T) {
	src := make([]byte, 100)
	if _, err := CompressBlock(src, make([]byte, 10)); err != ErrDstTooSmall {
		t.Fatalf("err = %v, want ErrDstTooSmall", err)
	}
}

// Hand-built decompression vectors verify wire-format compatibility
// independent of our own compressor.
func TestDecompressKnownVectors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want []byte
	}{
		{
			name: "literals only",
			in:   []byte{0x60, 'a', 'b', 'c', 'd', 'e', 'f'},
			want: []byte("abcdef"),
		},
		{
			name: "rle via overlapping match",
			// 1 literal 'a', then match offset 1 length 19 (token low
			// nibble 15 + ext 0 => 15, +4 minimum = 19).
			in:   []byte{0x1f, 'a', 0x01, 0x00, 0x00, 0x50, 'b', 'c', 'd', 'e', 'f'},
			want: append(bytes.Repeat([]byte{'a'}, 20), []byte("bcdef")...),
		},
		{
			name: "extended literal length",
			// 15+5 = 20 literals then terminator-style end.
			in:   append([]byte{0xf0, 0x05}, bytes.Repeat([]byte{'z'}, 20)...),
			want: bytes.Repeat([]byte{'z'}, 20),
		},
		{
			name: "non-overlapping match",
			// 8 literals "abcdefgh", match offset 8 len 4 => "abcd",
			// then final literals "tail5".
			in:   []byte{0x80, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 0x08, 0x00, 0x50, 't', 'a', 'i', 'l', '5'},
			want: []byte("abcdefghabcdtail5"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]byte, len(tc.want))
			n, err := DecompressBlock(tc.in, got)
			if err != nil {
				t.Fatalf("DecompressBlock: %v", err)
			}
			if got = got[:n]; !bytes.Equal(got, tc.want) {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		size int
	}{
		{"zero offset", []byte{0x10, 'a', 0x00, 0x00}, 10},
		{"offset beyond output", []byte{0x10, 'a', 0x09, 0x00}, 10},
		{"truncated literals", []byte{0x50, 'a'}, 10},
		{"truncated offset", []byte{0x10, 'a', 0x01}, 10},
		{"truncated length ext", []byte{0x1f, 'a', 0x01, 0x00}, 1000},
		{"runaway literal ext", []byte{0xf0, 0xff, 0xff}, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecompressBlock(tc.in, make([]byte, tc.size)); err == nil {
				t.Fatal("DecompressBlock accepted corrupt input")
			}
		})
	}
}

func TestDecompressDstTooSmall(t *testing.T) {
	src := compressGuarded(t, bytes.Repeat([]byte("abcd"), 100))
	dst := make([]byte, 10)
	if _, err := DecompressBlock(src, dst); err != ErrDstTooSmall {
		t.Fatalf("err = %v, want ErrDstTooSmall", err)
	}
}

// TestCompressLegalOnSeededInputs is the compressor's half of the
// contract on 1 000 seeded inputs at the sizes where its special cases
// live: 0…70 bytes (no room for a match, mfLimit, the last literals) and
// just past 64 KiB, one phrase at the start and again 65 535 ± 12 bytes
// on — the first positions where a candidate, or a zeroed table entry
// read as position 0, can be too far back to encode.
func TestCompressLegalOnSeededInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 900; i++ {
		// Few distinct bytes and frequent runs, so short inputs match.
		src := make([]byte, i%71)
		for j := range src {
			if j > 0 && rng.Intn(3) == 0 {
				src[j] = src[j-1]
			} else {
				src[j] = byte(rng.Intn(4))
			}
		}
		roundTrip(t, src)
	}
	for i := 0; i < 100; i++ {
		const phrase = 24
		at := maxOffset - 12 + i%25
		src := make([]byte, at+phrase+mfLimit+i%5)
		rng.Read(src[:phrase])
		copy(src[at:], src[:phrase]) // zeros between: one long match, so the phrase stays in the table
		rng.Read(src[at+phrase:])
		roundTrip(t, src)
	}
}

// TestDecodeMatchesReferenceOnCorpora compares the decoders on every
// corpus, compressed whole and with its middle third carried as a literal
// span (a second block shape: one long literal run between parsed
// stretches), at the exact size and, for the error paths, one byte short
// and with the block cut anywhere in its last 40 bytes.
func TestDecodeMatchesReferenceOnCorpora(t *testing.T) {
	for name, src := range corpora() {
		middle := make([]byte, CompressBound(len(src)))
		n, err := CompressBlockLiterals(src, middle, []Span{{len(src) / 3, 2 * len(src) / 3}})
		if err != nil {
			t.Fatalf("%s: CompressBlockLiterals: %v", name, err)
		}
		for _, block := range [][]byte{compressGuarded(t, src), middle[:n]} {
			if got := diffDecode(t, block, len(src)); !bytes.Equal(got, src) {
				t.Fatalf("%s: decoded bytes differ from the input", name)
			}
			diffDecode(t, block, len(src)-1)
			for cut := 1; cut <= 40 && cut < len(block); cut++ {
				diffDecode(t, block[:len(block)-cut], len(src))
			}
		}
	}
}

// TestDecodeMatchesReferenceOnBuiltBlocks compares the decoders on a
// matrix of hand-built blocks around every width the fast loops copy by:
// match offsets 0…70 (0 is an error for all; a built pattern below 16,
// 8- and 16-byte copies above), match lengths 4…40 (one, two and three
// stores) and with one (19…273) and two or more (274 up) extension bytes,
// literal runs on both sides of 8 and 16 and from the 15 that extends the
// token to 300 (two extension bytes), with the sequence first in the
// block (an offset beyond the output is an error), in the middle, and
// last before closing literals. A second pass ends the sequence 0…64
// bytes before the end of dst, across both fast loops' slack.
func TestDecodeMatchesReferenceOnBuiltBlocks(t *testing.T) {
	lits := make([]byte, 400)
	for i := range lits {
		lits[i] = byte(i*7 + 1)
	}
	head := func(dst []byte) int { // 72 literals and a match, so every offset up to 70 is legal
		return emitSequence(dst, 0, lits[100:172], 3, 9)
	}
	tail := func(dst []byte, di int) int { // slack for the fast loops, then the closing literals
		for i := 0; i < 4; i++ {
			di = emitSequence(dst, di, lits[i:i+3], 5+i, 6)
		}
		return di
	}
	buf := make([]byte, 1024)
	check := func(litLen, offset, mLen int, where string, closing int) {
		di := 0
		if where != "first" {
			di = head(buf)
		}
		di = emitSequence(buf, di, lits[:litLen], offset, mLen)
		if where != "last" {
			di = tail(buf, di)
		}
		di = emitLastLiterals(lits[:closing], buf, 0, di)
		block := buf[:di]

		seqs, err := parseBlock(block)
		if err != nil {
			t.Fatalf("lit %d offset %d len %d %s: built a block that does not parse: %v", litLen, offset, mLen, where, err)
		}
		size := seqs[len(seqs)-1].Pos
		got := diffDecode(t, block, size)
		if legal := offset >= 1 && (where != "first" || offset <= litLen); legal != (got != nil) {
			t.Fatalf("lit %d offset %d len %d %s, %d closing literals: decoded = %v, want %v", litLen, offset, mLen, where, closing, got != nil, legal)
		}
		diffDecode(t, block, size-1)
	}
	var mLens []int
	for mLen := 4; mLen <= 40; mLen++ {
		mLens = append(mLens, mLen)
	}
	mLens = append(mLens, 64, 273, 274, 300, 528, 529)
	for _, litLen := range []int{0, 8, 9, 14, 15, 16, 17, 31, 269, 270, 300} {
		for offset := 0; offset <= 70; offset++ {
			for _, mLen := range mLens {
				for _, where := range []string{"first", "middle", "last"} {
					check(litLen, offset, mLen, where, lastLiterals)
				}
			}
		}
	}
	for closing := 0; closing <= 64; closing++ {
		for _, litLen := range []int{0, 9, 16, 17, 40} {
			for _, offset := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 33} {
				for _, mLen := range []int{4, 16, 17, 18, 19, 33, 300} {
					check(litLen, offset, mLen, "last", closing)
				}
			}
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		dst := make([]byte, CompressBound(len(src)))
		n, err := CompressBlock(src, dst)
		if err != nil {
			return false
		}
		got := make([]byte, len(src))
		m, err := DecompressBlock(dst[:n], got)
		return err == nil && bytes.Equal(got[:m], src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompressibleRoundTrip biases quick inputs toward repetitive
// data so match-emission paths are exercised, not just literal runs.
func TestPropertyCompressibleRoundTrip(t *testing.T) {
	f := func(seed int64, period uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(period)%32 + 1
		pat := make([]byte, p)
		rng.Read(pat)
		src := bytes.Repeat(pat, int(n)%300+1)
		// Sprinkle mutations so matches break and restart.
		for i := 0; i < len(src)/50; i++ {
			src[rng.Intn(len(src))] ^= byte(rng.Intn(256))
		}
		dst := make([]byte, CompressBound(len(src)))
		nc, err := CompressBlock(src, dst)
		if err != nil {
			return false
		}
		got := make([]byte, len(src))
		m, err := DecompressBlock(dst[:nc], got)
		return err == nil && bytes.Equal(got[:m], src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecompressNeverPanics(t *testing.T) {
	// Arbitrary garbage must produce an error or short output, never a
	// panic or out-of-bounds access (diffDecode's guard pages), and the
	// oracle's result.
	f := func(junk []byte, size uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on junk input: %v", r)
			}
		}()
		diffDecode(t, junk, int(size)%4096)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	ratio := func(src []byte) float64 { return float64(len(src)) / float64(len(compressGuarded(t, src))) }
	if r := ratio(bytes.Repeat([]byte{'a'}, 10000)); r < 50 {
		t.Fatalf("ratio of constant run = %v, want >= 50", r)
	}
	rng := rand.New(rand.NewSource(6))
	noise := make([]byte, 10000)
	rng.Read(noise)
	if r := ratio(noise); r > 1.05 {
		t.Fatalf("ratio of noise = %v, want ~1", r)
	}
}

// Sequence is one sequence of a compressed block: LitLen literals, then
// MatchLen bytes copied from Offset back. Pos is the output position
// where the match starts. The final sequence has MatchLen 0.
type Sequence struct {
	LitLen, Offset, MatchLen, Pos int
}

// parseBlock walks the sequences of a block without decoding it.
func parseBlock(block []byte) ([]Sequence, error) {
	var seqs []Sequence
	si, pos := 0, 0
	for si < len(block) {
		token := block[si]
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			if litLen, si, err = readLenExt(block, si, litLen); err != nil {
				return nil, err
			}
		}
		si += litLen
		pos += litLen
		if si > len(block) {
			return nil, fmt.Errorf("%w: literal run overruns block", ErrCorrupt)
		}
		if si == len(block) {
			return append(seqs, Sequence{LitLen: litLen, Pos: pos}), nil
		}
		if si+2 > len(block) {
			return nil, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(block[si:]))
		si += 2
		mLen := int(token & 0xf)
		if mLen == 15 {
			var err error
			if mLen, si, err = readLenExt(block, si, mLen); err != nil {
				return nil, err
			}
		}
		mLen += minMatch
		seqs = append(seqs, Sequence{LitLen: litLen, Offset: offset, MatchLen: mLen, Pos: pos})
		pos += mLen
	}
	return seqs, fmt.Errorf("%w: block does not end in a literal run", ErrCorrupt)
}
