package lz4

// High-compression variant: same block format, better matches. Where
// CompressBlock keeps a single-candidate hash table (the reference
// "fast" strategy the paper's runtime uses for line-rate streaming),
// CompressBlockHC keeps hash chains and examines up to `depth`
// candidates per position, trading compression speed for ratio. The
// runtime can select it for bandwidth-starved paths — the paper's §1
// arithmetic (compression ratio multiplies effective link capacity)
// is exactly the case for spending more CPU per byte.

// HCDefaultDepth is the default chain-search depth, comparable to the
// reference implementation's mid-level.
const HCDefaultDepth = 64

// The chain heads: 64 Ki entries over 4-byte windows (Knuth's
// multiplicative hash), sized apart from the fast path's table.
const (
	hcHashLog = 16
	hcHashMul = 2654435761
)

// CompressBlockHC compresses src into dst with hash-chain matching at
// the given search depth (<=0 selects HCDefaultDepth). Output is a
// standard LZ4 block, decodable by DecompressBlock. dst must be at
// least CompressBound(len(src)) bytes.
func CompressBlockHC(src, dst []byte, depth int) (int, error) {
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrDstTooSmall
	}
	if len(src) == 0 {
		return 0, nil
	}
	if len(src) < mfLimit {
		return emitLastLiterals(src, dst, 0, 0), nil
	}
	if depth <= 0 {
		depth = HCDefaultDepth
	}

	head := make([]int32, 1<<hcHashLog) // position+1 of most recent occurrence
	chain := make([]int32, len(src))

	insert := func(i int) {
		h := (load32(src, i) * hcHashMul) >> (32 - hcHashLog)
		chain[i] = head[h] - 1 // previous occurrence, -1 terminates
		head[h] = int32(i + 1)
	}

	sn := len(src) - mfLimit
	matchEnd := len(src) - lastLiterals

	di := 0
	anchor := 0
	si := 0

	for si <= sn {
		insert(si)

		// Walk the chain for the longest match.
		bestLen := 0
		bestRef := -1
		cand := int(chain[si])
		for tries := 0; cand >= 0 && cand < si && si-cand <= maxOffset && tries < depth; tries++ {
			if load32(src, cand) == load32(src, si) {
				l := minMatch
				for si+l < matchEnd && src[cand+l] == src[si+l] {
					l++
				}
				if l > bestLen {
					bestLen = l
					bestRef = cand
				}
			}
			cand = int(chain[cand])
		}
		if bestLen < minMatch {
			si++
			continue
		}

		// Extend backwards over pending literals.
		ref := bestRef
		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
			bestLen++
		}

		di = emitSequence(dst, di, src[anchor:si], si-ref, bestLen)

		// Index the interior positions the match covers so later
		// matches can reference into it; the position right after the
		// match is inserted by the next loop iteration.
		end := si + bestLen
		if end > sn+1 {
			end = sn + 1
		}
		for i := si + 1; i < end; i++ {
			insert(i)
		}
		si += bestLen
		anchor = si
	}

	return emitLastLiterals(src, dst, anchor, di), nil
}

// CompressHC is the allocating convenience wrapper around
// CompressBlockHC.
func CompressHC(src []byte, depth int) []byte {
	dst := make([]byte, CompressBound(len(src)))
	n, err := CompressBlockHC(src, dst, depth)
	if err != nil {
		// Unreachable: dst is sized by CompressBound.
		panic(err)
	}
	return dst[:n]
}
