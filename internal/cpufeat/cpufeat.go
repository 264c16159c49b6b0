// Package cpufeat is the one place the repository's assembly kernels ask
// which x86 instructions the CPU has and the OS lets them use. It reads
// CPUID and XGETBV once, at start-up; every flag is false outside amd64.
//
// An AVX-512 flag is set only when the OS also saves the opmask and full
// ZMM state across context switches (XCR0), since a kernel using K or
// upper-ZMM registers is not safe without it.
package cpufeat

// Features the kernels use. Read-only after package initialisation.
var (
	SSE42      bool // CRC32
	AVX512F    bool // 512-bit foundation, VPTERNLOGQ
	AVX512BW   bool // byte and word ops on ZMM, VPMOVB2M
	AVX512VBMI bool // VPERMI2B
	VPCLMULQDQ bool // carry-less multiply on ZMM registers
)
