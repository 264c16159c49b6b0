package bitshuffle

import "numastream/internal/cpufeat"

// haveKernels reports AVX-512 F, BW and VBMI, with the OS saving the
// opmask and full ZMM state the kernels' K and Z registers need.
var haveKernels = cpufeat.AVX512F && cpufeat.AVX512BW && cpufeat.AVX512VBMI

// encodeBlocks codes blocks × 64 samples from src into the sixteen
// bit-planes at dst, dst+stride, …, dst+15·stride, 8 bytes per plane per
// block: one fused pass that splits each 128-byte block into its low and
// high bytes (VPERMI2B) and peels off their bits from the top
// (VPMOVB2M, then VPADDB to shift the next bit up).
//
//go:noescape
func encodeBlocks(dst, src *byte, blocks, stride int)

// decodeBlocks inverts encodeBlocks: per block and byte-plane it rebuilds
// 64 bytes from eight 64-bit masks (KMOVQ, then a masked VPADDB of ones
// after each doubling) and interleaves low and high bytes (VPERMI2B).
//
//go:noescape
func decodeBlocks(dst, src *byte, blocks, stride int)
