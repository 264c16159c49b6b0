package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMatchesCPUInfo checks each flag against the kernel's reading of
// CPUID in /proc/cpuinfo: a flag set here must be listed there (the OS
// may still withhold ZMM state, so an AVX-512 flag listed there need not
// be set here), and SSE 4.2 must agree both ways.
func TestMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo on linux/amd64")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				listed[f] = true
			}
			break
		}
	}
	for _, c := range []struct {
		name string
		have bool
	}{
		{"sse4_2", SSE42},
		{"avx512f", AVX512F},
		{"avx512bw", AVX512BW},
		{"avx512vbmi", AVX512VBMI},
		{"vpclmulqdq", VPCLMULQDQ},
	} {
		if c.have && !listed[c.name] {
			t.Errorf("%s detected but not in /proc/cpuinfo", c.name)
		}
		t.Logf("%s: %v", c.name, c.have)
	}
	if SSE42 != listed["sse4_2"] {
		t.Errorf("SSE42 = %v, /proc/cpuinfo lists sse4_2: %v", SSE42, listed["sse4_2"])
	}
	if (AVX512BW || AVX512VBMI || VPCLMULQDQ) && !AVX512F {
		t.Error("an AVX-512 extension is set without AVX512F")
	}
}
