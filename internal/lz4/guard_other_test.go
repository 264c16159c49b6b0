//go:build !linux

package lz4

import "testing"

// guarded returns n heap bytes: guard pages are only set up on Linux.
func guarded(t testing.TB, n int) (b []byte, free func()) {
	return make([]byte, n), func() {}
}
