package lz4

// encodeBlock is the parse in assembly (lz4_amd64.s): the same decisions
// as encodeBlockGo, so the same bytes, with match extension 16 bytes per
// compare and no bounds checks.
//
//go:noescape
func encodeBlock(dst, src []byte, table *[hashSize]uint32, si, anchor int) (int, int)

// decodeSequences is the decoder's fast loop: any sequence, extended
// lengths included, whose literals and match fit with 16 bytes to spare in
// both buffers is decoded with 16-byte copies; it stops at the first one
// that does not, and at any offset that is zero or reaches before dst,
// undecoded.
//
//go:noescape
func decodeSequences(dst, src []byte, di, si int) (int, int)
