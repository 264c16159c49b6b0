package bitshuffle

// haveKernels reports AVX-512 F, BW and VBMI, with the OS saving the
// opmask and full ZMM state: CPUID leaf 7 for the instructions, XGETBV
// for the state the kernels' K and Z registers need.
var haveKernels = detect()

func detect() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const (
		avx512f  = 1 << 16 // EBX
		avx512bw = 1 << 30 // EBX
		vbmi     = 1 << 1  // ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512bw) == avx512f|avx512bw && ecx7&vbmi != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
