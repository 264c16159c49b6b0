package cpufeat

func init() {
	max, _, _, _ := cpuid(0, 0)
	if max < 1 {
		return
	}
	const (
		sse42   = 1 << 20 // leaf 1 ECX
		osxsave = 1 << 27 // leaf 1 ECX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	SSE42 = ecx1&sse42 != 0
	if max < 7 || ecx1&osxsave == 0 {
		return
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return
	}
	const (
		avx512f    = 1 << 16 // leaf 7 EBX
		avx512bw   = 1 << 30 // leaf 7 EBX
		avx512vbmi = 1 << 1  // leaf 7 ECX
		vpclmulqdq = 1 << 10 // leaf 7 ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	AVX512F = ebx7&avx512f != 0
	if !AVX512F {
		return
	}
	AVX512BW = ebx7&avx512bw != 0
	AVX512VBMI = ecx7&avx512vbmi != 0
	VPCLMULQDQ = ecx7&vpclmulqdq != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
