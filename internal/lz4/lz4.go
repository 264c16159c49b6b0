// Package lz4 implements the LZ4 block compression format from scratch.
// The paper compresses every 11.0592 MB X-ray projection chunk with LZ4
// before transmission and decompresses it at the gateway; this package is
// the stand-in for the reference C library (github.com/lz4/lz4).
//
// The block format is the official one: a stream of sequences, each a
// token byte (literal length high nibble, match length - 4 low nibble,
// 15 meaning "extended by 255-value bytes"), the literals, a 2-byte
// little-endian match offset, and the match-length extension bytes. The
// final sequence carries literals only.
//
// The kernels are sized to the data the pipeline ships: 16-bit projections
// transposed into bit-planes (internal/bitshuffle), about 16 000 sequences
// per MiB at 5.2 : 1 — long runs of equal bytes, most of them matched two
// bytes back, between noisy stretches of a few literals. Two in five
// matches and one in ten literal runs carry a length extension, so
// neither kernel may leave long sequences to a slow path. CompressBlock is
// the reference "fast" (level 1) strategy: one candidate per hash bucket,
// a 4 Ki-entry (16 KiB) table — the reference's LZ4_HASHLOG 12 — on the
// caller's stack and a 7-byte hash window; it assumes nothing of its input
// and needs CompressBound bytes of output. DecompressBlock runs a fast loop
// while both buffers have slack, and leaves the tail and every malformed
// sequence to a careful loop that checks each length before each copy; it
// needs no slack beyond the decoded size.
//
// CompressBlockLiterals is the same parse told which spans of its input to
// carry as literals: it parses only the gaps between them, carrying its
// match table across, and writes an ordinary block any decoder reads. The
// pipeline hands it the bit-planes that the last trial found to be noise
// (RegionCosts charges a trial block's bytes to its planes): on tomo
// projections planes 4 and 5, which took a fifth of the parse's time to
// save 3 % of what LZ4 saves. Skipping them ships a 1 MiB chunk at
// 4.58 : 1 instead of 5.22 : 1, for 0.17 ms less encode and 0.04 ms less
// decode.
//
// On amd64 the compressor's parse and the decoder's fast loop are
// assembly (lz4_amd64.s), in baseline x86-64 (scalar, SSE2 and BSF, so
// there is no CPU check): a parse that makes the Go parse's every decision,
// so its output is byte-identical, and a fast loop that takes extended
// lengths and copies with 16-byte moves. The Go kernels, encodeBlockGo
// and decodeSequencesGo, run on every other GOARCH and are the reference
// the assembly is tested against. On the benchmark host (2-vCPU Xeon VM) a
// 1 MiB block of bit-planes compresses in 0.65 ms and decompresses in
// 0.22 ms per core, against 1.12 and 0.43 ms for the Go kernels and 0.80
// and 0.26 ms for the C library (liblz4 1.9.4) on the same blocks.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const (
	minMatch     = 4  // smallest encodable match
	lastLiterals = 5  // spec: last 5 bytes must be literals
	mfLimit      = 12 // spec: no match may start within 12 bytes of the end
	maxOffset    = 65535

	// The fast compressor's match table: 4 Ki positions, 16 KiB, the
	// reference library's LZ4_HASHLOG 12. It is a local array of
	// compressSpans, so it lives on the calling worker's stack, stays
	// in L1 next to the data, and is zeroed by its declaration.
	hashLog  = 12
	hashSize = 1 << hashLog
)

// Errors returned by this package.
var (
	// ErrDstTooSmall reports a destination buffer smaller than the
	// produced output. Use CompressBound to size compression buffers.
	ErrDstTooSmall = errors.New("lz4: destination buffer too small")
	// ErrCorrupt reports malformed compressed input.
	ErrCorrupt = errors.New("lz4: corrupt compressed data")
)

// CompressBound returns the maximum compressed size for an input of n
// bytes, including worst-case incompressible expansion.
func CompressBound(n int) int {
	return n + n/255 + 16
}

// hash7 hashes the low 7 bytes of u, the window a match candidate must
// share. Matches are still verified, and taken, from 4 bytes up; the wide
// window is for choosing the candidate. On 16-bit projections any two
// pixels recur within a few rows, so a 4-byte window fills the table with
// candidates good for a 4-byte match that costs 3 bytes to write; 7 bytes
// (the reference LZ4 hashes 5 on 64-bit hosts; zstd's fast strategy,
// whose 7-byte hash this is, up to 8) picks the ones that run on. Measured on
// 1 MiB projections, window → ratio, sequences per MiB: 4 → 2.18,
// 139 000; 5 → 2.47, 105 000; 6 → 2.40, 97 000; 7 → 2.61, 80 000;
// 8 → 2.53, 76 000. Time follows the sequence count.
func hash7(u uint64) uint32 {
	return uint32(((u << 8) * 58295818150454627) >> (64 - hashLog))
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i : i+4 : len(b)])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i : i+8 : len(b)])
}

func store64(b []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(b[i:i+8:len(b)], v)
}

// CompressBlock compresses src into dst using the LZ4 block format and
// returns the number of bytes written. dst must be at least
// CompressBound(len(src)) bytes; otherwise ErrDstTooSmall is returned.
// An empty src produces zero output bytes.
func CompressBlock(src, dst []byte) (int, error) {
	return CompressBlockLiterals(src, dst, nil)
}

// Span is the byte range [Start, End) of a block's input.
type Span struct{ Start, End int }

// CompressBlockLiterals is CompressBlock with every byte of lits carried
// as literals: the parse runs only over the gaps between the spans,
// probes no position inside one and extends no match into one, while
// its match table carries across them (a match may still refer back into
// a span, and extend backwards over its last bytes). What it writes is
// an ordinary LZ4 block. lits must be in order and must not overlap; nil
// is CompressBlock. A span costs its length in output bytes and no parse
// time, which pays where LZ4 would find almost nothing to match.
func CompressBlockLiterals(src, dst []byte, lits []Span) (int, error) {
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrDstTooSmall
	}
	end := 0
	for _, r := range lits {
		if r.Start < end || r.End < r.Start || r.End > len(src) {
			return 0, fmt.Errorf("lz4: literal span [%d, %d) out of order or outside %d bytes", r.Start, r.End, len(src))
		}
		end = r.End
	}
	if len(src) == 0 {
		return 0, nil
	}
	return compressSpans(src, dst, lits, false), nil
}

// RegionCosts charges the block's bytes to the regions of its decoded
// output: region i is bytes [i·width, (i+1)·width), and costs[i] grows by
// the literals that fall in it plus 3 (token and offset) for each match
// that starts in it. A region's width over its cost is about the ratio
// LZ4 achieved on it. Output past len(costs)·width is not charged.
func RegionCosts(block []byte, width int, costs []int) error {
	if width <= 0 {
		return fmt.Errorf("lz4: region width %d", width)
	}
	limit := width * len(costs)
	si, pos := 0, 0
	for si < len(block) {
		token := block[si]
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			if litLen, si, err = readLenExt(block, si, litLen); err != nil {
				return err
			}
		}
		if si+litLen > len(block) {
			return fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, litLen)
		}
		for p, end := pos, min(pos+litLen, limit); p < end; {
			r := p / width
			next := min(end, (r+1)*width)
			costs[r] += next - p
			p = next
		}
		si += litLen
		pos += litLen
		if si == len(block) {
			return nil
		}
		if si+2 > len(block) {
			return fmt.Errorf("%w: truncated match offset", ErrCorrupt)
		}
		si += 2
		mLen := int(token & 0xf)
		if mLen == 15 {
			var err error
			if mLen, si, err = readLenExt(block, si, mLen); err != nil {
				return err
			}
		}
		if pos < limit {
			costs[pos/width] += 3
		}
		pos += mLen + minMatch
	}
	return nil
}

// compressSpans is the fast compressor: the parse (encodeBlock, or with
// goParse the Go reference encodeBlockGo) over each gap between the
// literal spans lits, then the last literals. len(src) > 0 and
// len(dst) >= CompressBound(len(src)).
func compressSpans(src, dst []byte, lits []Span, goParse bool) int {
	var table [hashSize]uint32
	parse := func(end, si, di, anchor int) (int, int) {
		var n int
		if goParse {
			n, anchor = encodeBlockGo(dst[di:], src[:end], &table, si, anchor)
		} else {
			n, anchor = encodeBlock(dst[di:], src[:end], &table, si, anchor)
		}
		return di + n, anchor
	}
	// The search starts at 1, so a candidate lies before si.
	si, di, anchor := 1, 0, 0
	for _, r := range lits {
		if r.Start == r.End {
			continue
		}
		// The gap before r is parsed as a block that ends lastLiterals
		// bytes into r: its matches stop at r.Start, and its last
		// literals run on into r.
		if end := min(r.Start+lastLiterals, len(src)); si <= end-mfLimit {
			di, anchor = parse(end, si, di, anchor)
		}
		si = max(si, r.End)
	}
	if si <= len(src)-mfLimit {
		di, anchor = parse(len(src), si, di, anchor)
	}
	return emitLastLiterals(src, dst, anchor, di)
}

// encodeBlockGo is the fast parse in Go: what encodeBlock runs where
// there is no assembly. From si, with the literals since anchor pending,
// it writes into dst from its start every sequence up to the end of src
// a block may have, and returns the bytes written and where the literals
// still pending begin. One 8-byte load serves the hash, the 4-byte match
// test and the first 8 bytes of extension, the common sequence is
// emitted inline, and the position after a match is probed at once,
// with the position two bytes back entered first (the reference
// compressor's _next_match step; on plain projections it costs 4 % of
// the time and is worth 1.7 % of the ratio). 1 <= si <= len(src)-mfLimit,
// anchor <= si, and dst has room for CompressBound(len(src)-anchor).
func encodeBlockGo(dst, src []byte, table *[hashSize]uint32, si, anchor int) (int, int) {
	// table[h] is the last position whose 7 bytes hashed to h. A zeroed
	// entry reads as position 0, which is a real position: a candidate
	// is always verified against the bytes, so no "empty" mark is
	// needed. Positions are kept modulo 2^32; a wrapped one fails the
	// offset test.
	sn := len(src) - mfLimit // last position where a match may start
	matchEnd := len(src) - lastLiterals

	di := 0
	searchSteps := 0

	for si <= sn {
		cur := load64(src, si) // si+8 <= len(src)-4
		h := hash7(cur)
		ref := int(table[h])
		table[h] = uint32(si)
		x := cur ^ load64(src, ref)
		if uint32(x) != 0 || si-ref > maxOffset {
			// No usable match: advance. The skip strength grows
			// slowly through incompressible regions, mirroring the
			// reference compressor's acceleration behaviour.
			searchSteps++
			si += 1 + (searchSteps >> 6)
			continue
		}
		searchSteps = 0

		// Extend the match forwards, 8 bytes at a time, stopping before
		// the mandatory trailing literal region. x already holds the
		// comparison of the first 8. (The goto skips the byte loop; the
		// form without it, falling through that loop, measured 15 %
		// slower on projections.)
		end := si + 8
		if x != 0 {
			end = si + bits.TrailingZeros64(x)>>3
		} else {
			r := ref + 8
			for end+8 <= matchEnd {
				if y := load64(src, end) ^ load64(src, r); y != 0 {
					end += bits.TrailingZeros64(y) >> 3
					goto extended
				}
				end += 8
				r += 8
			}
			for end < matchEnd && src[end] == src[r] {
				end++
				r++
			}
		}
		if end > matchEnd { // si+8 can be matchEnd+1
			end = matchEnd
		}
	extended:

		// Extend the match backwards over bytes already counted as
		// literals.
		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
		}

		litLen := si - anchor
		mCode := end - si - minMatch
		if litLen <= 8 && mCode < 15 {
			// One token, at most 8 literals by one wide store. The
			// store may run past the literals into bytes the offset
			// and the next sequence overwrite; CompressBound's 16
			// spare bytes keep it inside dst, and anchor+8 <= sn+8.
			dst[di] = byte(litLen<<4 | mCode)
			store64(dst, di+1, load64(src, anchor))
			di += 1 + litLen
			binary.LittleEndian.PutUint16(dst[di:], uint16(si-ref))
			di += 2
		} else {
			di = emitSequence(dst, di, src[anchor:si], si-ref, end-si)
		}
		si = end
		anchor = end
		if si > sn {
			break
		}
		// The next iteration probes si itself; position si-2, inside
		// the match just emitted, is entered first.
		table[hash7(load64(src, si-2))] = uint32(si - 2)
	}

	return di, anchor
}

// emitSequence writes one token + literals + offset + match-length
// extension into dst at di and returns the new di.
func emitSequence(dst []byte, di int, literals []byte, offset, mLen int) int {
	litLen := len(literals)
	mCode := mLen - minMatch
	tokenPos := di
	di++
	var token byte
	if litLen >= 15 {
		token = 15 << 4
		di = emitLenExt(dst, di, litLen-15)
	} else {
		token = byte(litLen) << 4
	}
	di += copy(dst[di:], literals)
	binary.LittleEndian.PutUint16(dst[di:], uint16(offset))
	di += 2
	if mCode >= 15 {
		token |= 15
		di = emitLenExt(dst, di, mCode-15)
	} else {
		token |= byte(mCode)
	}
	dst[tokenPos] = token
	return di
}

// emitLenExt writes the 255-value length extension encoding of n.
func emitLenExt(dst []byte, di, n int) int {
	for n >= 255 {
		dst[di] = 255
		di++
		n -= 255
	}
	dst[di] = byte(n)
	return di + 1
}

// emitLastLiterals writes the final literal-only sequence covering
// src[anchor:] and returns the new di.
func emitLastLiterals(src, dst []byte, anchor, di int) int {
	lit := src[anchor:]
	litLen := len(lit)
	if litLen >= 15 {
		dst[di] = 15 << 4
		di++
		di = emitLenExt(dst, di, litLen-15)
	} else {
		dst[di] = byte(litLen) << 4
		di++
	}
	di += copy(dst[di:], lit)
	return di
}

const (
	// What the Go fast loop needs left in each buffer to decode one
	// unextended sequence with 8-byte loads and stores and no further
	// checks. src: the token, two 8-byte literal loads (a run is at most
	// 14), and the offset, which starts no later than byte 15. dst: 14
	// literals, then a match of at most 18 written as three 8-byte stores.
	fastSrcSlack = 1 + 16
	fastDstSlack = 14 + 24
)

// periodStep[offset] is the smallest multiple of offset that is at
// least 8: copying 8 bytes from that far back continues a pattern of
// period offset without the load overlapping its own store.
var periodStep = [8]int{8, 8, 8, 9, 8, 10, 12, 14}

// DecompressBlock decompresses the LZ4 block src into dst and returns the
// number of bytes written. dst must be large enough for the whole
// uncompressed payload (callers carry the uncompressed size out of band,
// as the chunk transport does); it needs no slack beyond that. It returns
// ErrCorrupt on malformed input and ErrDstTooSmall when dst cannot hold
// the output. Bytes of dst past the returned count are unspecified: the
// decoder stores 8 or 16 bytes at a time and may have written there.
func DecompressBlock(src, dst []byte) (int, error) {
	return decompress(src, dst, decodeSequences)
}

// decompress is DecompressBlock with its fast loop as a parameter, so the
// Go loop can be tested and timed where assembly is the default. fast
// decodes whole sequences from si into dst at di for as long as it can
// without a check failing, and returns where it stopped; it never fails.
// Anything it leaves — the tail of the block, and every malformed
// sequence — is decoded here, one sequence at a time with every length
// checked before every copy, before fast runs again. So this loop is the
// only place errors are made.
func decompress(src, dst []byte, fast func(dst, src []byte, di, si int) (int, int)) (int, error) {
	di, si := 0, 0

	for {
		di, si = fast(dst, src, di, si)
		if si >= len(src) {
			return di, nil
		}
		token := src[si]
		si++

		// Literal run.
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
			// Final sequence: literals only.
			return di, nil
		}

		// Match.
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
		// A match longer than its offset overlaps its own output; that
		// is how LZ4 encodes runs (a short period repeated). Copy the
		// period, then double what has been written until it is done.
		out := dst[di-offset : di+mLen]
		for n := offset; n < len(out); n *= 2 {
			copy(out[n:], out[:n])
		}
		di += mLen
	}
}

// decodeSequencesGo is the decoder's fast loop in Go: what
// decodeSequences runs where there is no assembly loop, and the reference
// the assembly is tested against. While both buffers have slack for its
// widest access, a sequence whose token carries no length extension is
// decoded with 8-byte loads and stores and no calls; it stops at the
// first other one, undecoded.
func decodeSequencesGo(dst, src []byte, di, si int) (int, int) {
	for si+fastSrcSlack <= len(src) && di+fastDstSlack <= len(dst) {
		token := src[si]
		litLen := int(token >> 4)
		mLen := int(token&0xf) + minMatch
		if litLen == 15 || mLen == 15+minMatch {
			break
		}
		store64(dst, di, load64(src, si+1))
		if litLen > 8 {
			store64(dst, di+8, load64(src, si+9))
		}
		// At least two bytes follow the literals, so this is not the
		// final sequence and an offset is there to read.
		s := si + 1 + litLen
		d := di + litLen
		offset := int(binary.LittleEndian.Uint16(src[s:]))
		m := d - offset
		if offset == 0 || m < 0 {
			break
		}
		// The first 8 bytes, branch-free over every offset: below 8
		// the match overlaps its own output, a pattern of period
		// offset, and 8 bytes of it are built in a register by
		// doubling; from 8 up the shifts are by 64 or more, which
		// yield 0 and leave the loaded bytes as they are.
		sh := uint(offset) * 8
		v := load64(dst, m) & (1<<sh - 1)
		v |= v << sh
		v |= v << (2 * sh)
		v |= v << (4 * sh)
		store64(dst, d, v)
		// Continue from a whole number of periods back, so the
		// load does not overlap its own store.
		step := offset
		if offset < 8 {
			step = periodStep[offset]
		}
		m = d + 8 - step
		store64(dst, d+8, load64(dst, m))
		if mLen > 16 {
			store64(dst, d+16, load64(dst, m+8))
		}
		si = s + 2
		di = d + mLen
	}
	return di, si
}

// readLenExt accumulates 255-value extension bytes onto base.
func readLenExt(src []byte, si, base int) (int, int, error) {
	n := base
	for {
		if si >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[si]
		si++
		n += int(b)
		if n < 0 {
			return 0, 0, fmt.Errorf("%w: length overflow", ErrCorrupt)
		}
		if b != 255 {
			return n, si, nil
		}
	}
}

// Compress is a convenience wrapper that allocates an output buffer of
// exactly the compressed size.
func Compress(src []byte) []byte {
	dst := make([]byte, CompressBound(len(src)))
	n, err := CompressBlock(src, dst)
	if err != nil {
		// Unreachable: dst is sized by CompressBound.
		panic(err)
	}
	return dst[:n]
}

// Decompress is a convenience wrapper for callers that know the
// uncompressed size.
func Decompress(src []byte, uncompressedSize int) ([]byte, error) {
	dst := make([]byte, uncompressedSize)
	n, err := DecompressBlock(src, dst)
	if err != nil {
		return nil, err
	}
	if n != uncompressedSize {
		return nil, fmt.Errorf("%w: decompressed %d bytes, expected %d", ErrCorrupt, n, uncompressedSize)
	}
	return dst, nil
}

// Ratio returns the compression ratio (uncompressed/compressed) achieved
// by compressing src, used by the workload calibration code.
func Ratio(src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	c := Compress(src)
	if len(c) == 0 {
		return 1
	}
	return float64(len(src)) / float64(len(c))
}
