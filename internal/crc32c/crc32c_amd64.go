package crc32c

import "numastream/internal/cpufeat"

// haveKernel reports AVX-512 F and VPCLMULQDQ, with the OS saving full
// ZMM state, and SSE 4.2 for the CRC32 instruction that reduces the
// folded remainder.
var haveKernel = cpufeat.AVX512F && cpufeat.VPCLMULQDQ && cpufeat.SSE42

// foldBlocks returns the CRC-32C of n bytes at p added to crc; n is a
// non-zero multiple of blockLen. The first 256 bytes (crc xored into
// the first four) load four ZMM accumulators; each further 256 bytes is
// folded in by multiplying every 128-bit lane by x^2048 mod P (two
// VPCLMULQDQ against fold2048) and xoring with the next 64 bytes
// (VPTERNLOGQ). The four accumulators are stored and summed by CRC32Q.
//
//go:noescape
func foldBlocks(crc uint32, p *byte, n int) uint32
