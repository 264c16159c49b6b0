package lz4

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"numastream/internal/bitshuffle"
	"numastream/internal/guardmem"
)

// spansFromCuts turns cut points, each a fraction (of 255) of an n-byte
// block, into literal spans: sorted, taken in pairs, an odd one out
// running to the end. Equal cuts make empty spans, and a pair that
// shares its cut with the next makes two adjacent ones.
func spansFromCuts(n int, cuts []byte) []Span {
	pos := make([]int, len(cuts), len(cuts)+1)
	for i, c := range cuts {
		pos[i] = int(c) * n / 255
	}
	slices.Sort(pos)
	if len(pos)%2 == 1 {
		pos = append(pos, n)
	}
	var lits []Span
	for i := 0; i < len(pos); i += 2 {
		lits = append(lits, Span{pos[i], pos[i+1]})
	}
	return lits
}

// compressLiteralsGuarded runs CompressBlockLiterals with src against a
// guard page and exactly CompressBound bytes of dst against another, and
// fails unless the block is the Go parse's byte for byte.
func compressLiteralsGuarded(t testing.TB, src []byte, lits []Span) []byte {
	t.Helper()
	in, freeIn := guardmem.After(t, len(src))
	defer freeIn()
	copy(in, src)
	out, freeOut := guardmem.After(t, CompressBound(len(src)))
	defer freeOut()
	n, err := CompressBlockLiterals(in, out, lits)
	if err != nil {
		t.Fatalf("CompressBlockLiterals(%d bytes, %v): %v", len(src), lits, err)
	}
	want := make([]byte, CompressBound(len(src)))
	wn := 0
	if len(src) > 0 {
		wn = compressSpans(src, want, lits, true)
	}
	if !bytes.Equal(out[:n], want[:wn]) {
		t.Fatalf("%d bytes, spans %v: the parse wrote %d bytes, the Go parse %d, or the bytes differ", len(src), lits, n, wn)
	}
	return bytes.Clone(out[:n])
}

// literalRoundTrip compresses src with literal spans, checks the block is
// legal, that no match runs forward into a span, and that every decoder
// turns it back into src.
func literalRoundTrip(t testing.TB, src []byte, lits []Span) []byte {
	t.Helper()
	block := compressLiteralsGuarded(t, src, lits)
	checkLegalBlock(t, src, block)
	seqs, _ := parseBlock(block)
	for _, q := range seqs {
		end := q.Pos + q.MatchLen
		for _, r := range lits {
			if q.MatchLen > 0 && end > r.Start && end <= r.End {
				t.Fatalf("spans %v: match %+v ends inside [%d, %d)", lits, q, r.Start, r.End)
			}
		}
	}
	if got := diffDecode(t, block, len(src)); !bytes.Equal(got, src) {
		t.Fatalf("spans %v: round trip mismatch", lits)
	}
	return block
}

func TestLiteralSpansRoundTrip(t *testing.T) {
	planes := make([]byte, 64<<10)
	bitshuffle.Encode(planes, tomoProjections(1)[0][:len(planes)])
	inputs := corpora()
	inputs["planes"] = planes
	for name, src := range inputs {
		n := len(src)
		q := n / 16
		cases := map[string][]Span{
			"none":             nil,
			"empty":            {{n / 2, n / 2}},
			"block start":      {{0, q}},
			"block end":        {{n - q, n}},
			"whole block":      {{0, n}},
			"adjacent":         {{4 * q, 5 * q}, {5 * q, 6 * q}},
			"one byte apart":   {{4 * q, 5 * q}, {5*q + 1, 6 * q}},
			"gap of mfLimit":   {{q, 2 * q}, {2*q + mfLimit, 3 * q}},
			"inside last 12":   {{n - 10, n - 3}},
			"at last 12":       {{n - mfLimit, n - mfLimit + 1}},
			"at last literals": {{n - lastLiterals - 1, n - lastLiterals}},
			"start and end":    {{0, 3}, {n - 3, n}},
		}
		for cname, lits := range cases {
			t.Run(name+"/"+cname, func(t *testing.T) { literalRoundTrip(t, src, lits) })
		}
	}
	// Blocks too short for any parse, with and without spans.
	for n := 0; n <= 2*mfLimit; n++ {
		src := bytes.Repeat([]byte{'z'}, n)
		for _, lits := range [][]Span{nil, {{0, n}}, {{n / 2, n}}, {{0, n / 2}}} {
			literalRoundTrip(t, src, lits)
		}
	}
}

// TestLiteralSpansSkipTheParse: spans over the tomo corpus's noise
// planes cost at least their length, and more than the full parse.
func TestLiteralSpansSkipTheParse(t *testing.T) {
	blocks, packed := tomoCorpus(1<<20, true, nil)
	q := (1 << 20) / 16
	lits := []Span{{4 * q, 6 * q}}
	for i, src := range blocks {
		block := literalRoundTrip(t, src, lits)
		if len(block) < 2*q {
			t.Fatalf("block %d: %d bytes with %d literal bytes", i, len(block), 2*q)
		}
		if len(block) <= len(packed[i]) {
			t.Fatalf("block %d: %d bytes with literal planes, %d without", i, len(block), len(packed[i]))
		}
	}
}

func TestCompressBlockLiteralsRejectsBadSpans(t *testing.T) {
	src := make([]byte, 100)
	dst := make([]byte, CompressBound(len(src)))
	for _, lits := range [][]Span{
		{{10, 5}},
		{{-1, 5}},
		{{90, 101}},
		{{10, 20}, {15, 30}},
		{{30, 40}, {10, 20}},
	} {
		if _, err := CompressBlockLiterals(src, dst, lits); err == nil {
			t.Errorf("spans %v accepted", lits)
		}
	}
	if _, err := CompressBlockLiterals(src, dst[:10], nil); err != ErrDstTooSmall {
		t.Errorf("short dst: %v, want ErrDstTooSmall", err)
	}
}

func TestCompressBlockLiteralsAllocatesNothing(t *testing.T) {
	blocks, _ := tomoCorpus(64<<10, true, nil)
	dst := make([]byte, CompressBound(64<<10))
	lits := []Span{{16 << 10, 24 << 10}}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := CompressBlockLiterals(blocks[0], dst, lits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per call", n)
	}
}

// TestRegionCosts checks the charge against the block's parsed sequences
// and the plane ratios it reports on the tomo corpus: the noise plane 4
// under 2:1, the signal planes 6 and up over it.
func TestRegionCosts(t *testing.T) {
	_, packed := tomoCorpus(1<<20, true, nil)
	q := (1 << 20) / 16
	for i, block := range packed {
		costs := make([]int, 16)
		if err := RegionCosts(block, q, costs); err != nil {
			t.Fatal(err)
		}
		seqs, err := parseBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, 16)
		for _, s := range seqs {
			for p := s.Pos - s.LitLen; p < s.Pos; p++ {
				want[p/q]++
			}
			if s.MatchLen > 0 {
				want[s.Pos/q] += 3
			}
		}
		if !slices.Equal(costs, want) {
			t.Fatalf("block %d: costs %v, want %v", i, costs, want)
		}
		ratio := func(p int) float64 { return float64(q) / float64(max(costs[p], 1)) }
		if r := ratio(4); r >= 2 {
			t.Errorf("block %d: plane 4 at %.2f:1, want noise", i, r)
		}
		for p := 6; p < 16; p++ {
			if r := ratio(p); r < 2 {
				t.Errorf("block %d: plane %d at %.2f:1", i, p, r)
			}
		}
	}

	// Regions past len(costs) are not charged; a literal run straddling
	// regions is split between them.
	src := []byte("0123456789abcdefghijklmnopqrstuv")
	block := compressGuarded(t, src) // one literal run: no repeats
	costs := make([]int, 3)
	if err := RegionCosts(block, 10, costs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(costs, []int{10, 10, 10}) {
		t.Fatalf("literal-only costs %v", costs)
	}
	for _, bad := range [][]byte{{0xf0}, {0x20, 'a'}, {0x10, 'a', 1}} {
		if err := RegionCosts(bad, 4, make([]int, 4)); err == nil {
			t.Errorf("block %x: no error", bad)
		}
	}
	if err := RegionCosts(block, 0, costs); err == nil {
		t.Error("width 0: no error")
	}
}

// ExampleCompressBlockLiterals ships bytes 8–40 as literals.
func ExampleCompressBlockLiterals() {
	src := bytes.Repeat([]byte("0123456789abcdef"), 4)
	dst := make([]byte, CompressBound(len(src)))
	n, _ := CompressBlockLiterals(src, dst, []Span{{8, 40}})
	out := make([]byte, len(src))
	m, _ := DecompressBlock(dst[:n], out)
	fmt.Println(bytes.Equal(out[:m], src), n > 32)
	// Output: true true
}
