//go:build !amd64

package lz4

// No assembly outside amd64: the Go kernels are the kernels.

func encodeBlock(dst, src []byte, table *[hashSize]uint32, si, anchor int) (int, int) {
	return encodeBlockGo(dst, src, table, si, anchor)
}

func decodeSequences(dst, src []byte, di, si int) (int, int) {
	return decodeSequencesGo(dst, src, di, si)
}
