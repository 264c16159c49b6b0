//go:build !amd64

package crc32c

// haveKernel: no kernel outside amd64; Update runs hash/crc32.
const haveKernel = false

func foldBlocks(crc uint32, p *byte, n int) uint32 {
	panic("crc32c: no kernel on this platform")
}
