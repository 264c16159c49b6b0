package lz4

// compressBlock runs the parse in assembly (lz4_amd64.s): the same
// decisions as compressBlockGo, so the same bytes, with match extension
// 16 bytes per compare and no bounds checks. The last literals are
// written here.
func compressBlock(src, dst []byte) int {
	var table [hashSize]uint32
	di, anchor := encodeBlock(dst, src, &table)
	return emitLastLiterals(src, dst, anchor, di)
}

// encodeBlock emits every sequence compressBlockGo would, into dst from
// its start, and returns the bytes written and where the last literals
// begin. table must be zeroed. len(src) >= mfLimit and len(dst) >=
// CompressBound(len(src)).
//
//go:noescape
func encodeBlock(dst, src []byte, table *[hashSize]uint32) (di, anchor int)

// decodeSequences is the decoder's fast loop: any sequence, extended
// lengths included, whose literals and match fit with 16 bytes to spare in
// both buffers is decoded with 16-byte copies; it stops at the first one
// that does not, and at any offset that is zero or reaches before dst,
// undecoded.
//
//go:noescape
func decodeSequences(dst, src []byte, di, si int) (int, int)
