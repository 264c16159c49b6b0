//go:build linux

package numa

import (
	"fmt"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel cpu_set_t-compatible bitmask.
type cpuMask []uint64

const cpuMaskWords = 16 // 1024 CPUs, matching glibc's CPU_SETSIZE

func newCPUMask(cpus []int) (cpuMask, error) {
	m := make(cpuMask, cpuMaskWords)
	for _, c := range cpus {
		if c < 0 || c >= cpuMaskWords*64 {
			return nil, fmt.Errorf("numa: cpu %d out of mask range", c)
		}
		m[c/64] |= 1 << (uint(c) % 64)
	}
	return m, nil
}

func setAffinity(cpus []int) error {
	if len(cpus) == 0 {
		return fmt.Errorf("numa: empty CPU set")
	}
	m, err := newCPUMask(cpus)
	if err != nil {
		return err
	}
	return setAffinityMask(m)
}

func setAffinityMask(m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		0, // current thread
		uintptr(len(m)*8),
		uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return fmt.Errorf("numa: sched_setaffinity: %w", errno)
	}
	return nil
}

func getAffinity() (cpuMask, error) {
	m := make(cpuMask, cpuMaskWords)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		0,
		uintptr(len(m)*8),
		uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return nil, fmt.Errorf("numa: sched_getaffinity: %w", errno)
	}
	return m, nil
}
