//go:build !amd64

package bitshuffle

// haveKernels: no vector kernels outside amd64; Encode and Decode run the
// portable Go code.
const haveKernels = false

func encodeBlocks(dst, src *byte, blocks, stride int) {
	panic("bitshuffle: no kernel on this platform")
}

func decodeBlocks(dst, src *byte, blocks, stride int) {
	panic("bitshuffle: no kernel on this platform")
}
