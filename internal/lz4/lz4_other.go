//go:build !amd64

package lz4

// No assembly outside amd64: the Go kernels are the kernels.

func compressBlock(src, dst []byte) int { return compressBlockGo(src, dst) }

func decodeSequences(dst, src []byte, di, si int) (int, int) {
	return decodeSequencesGo(dst, src, di, si)
}
