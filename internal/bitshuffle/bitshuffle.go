// Package bitshuffle implements the bit-plane transform the sender applies
// to a chunk before LZ4 (bitshuffle, Masui et al. 2015; the pairing
// detector file formats ship as HDF5's "bslz4" filter).
//
// The format reads a chunk as little-endian 16-bit samples. Let
// m = len &^ 15, the bytes of whole groups of eight samples, and q = m/16.
// The output is byte-plane 0 (the samples' low bytes) followed by
// byte-plane 1 (their high bytes); each byte-plane is eight bit-planes of
// q bytes, bit 0 first. In a bit-plane, bit j of byte g is bit b of that
// byte of sample 8g+j, so bit-plane b of byte-plane p starts at (8p+b)·q.
// The len−m tail bytes follow unchanged. One layout, whole-chunk: there
// is no block size to agree on.
//
// Why it pays on detector data: the zero low-order bits and the
// near-constant high byte of a projection become long runs of equal
// bytes, which LZ4 matches almost for free, and the noisy bits become one
// short stretch it leaves as literals.
//
// Encode and Decode run AVX-512 (BW + VBMI) kernels where the CPU and OS
// support them and the portable Go code below everywhere else; the Go
// code is also the reference the kernels are tested against.
package bitshuffle

import (
	"fmt"
	"sync/atomic"
)

// portable forces the Go code even where the kernels run (ForcePortable).
var portable atomic.Bool

// Vectorized reports whether Encode runs a vector kernel on this CPU.
// Decoding is supported everywhere; a caller that transforms data only
// when that pays (the pipeline's compress stage) asks this first.
func Vectorized() bool { return haveKernels && !portable.Load() }

// ForcePortable makes Encode and Decode run the portable Go code until
// the returned function restores the detected choice. It exists so tests
// above this package can drive the path every receiver without AVX-512
// takes; call it only while nothing is coding.
func ForcePortable() (restore func()) {
	prev := portable.Swap(true)
	return func() { portable.Store(prev) }
}

// Encode writes the bit-plane form of src into dst. The two must be the
// same length and must not overlap.
func Encode(dst, src []byte) {
	m, q := shape(dst, src)
	g := 0
	if Vectorized() && q >= kernelGroups {
		g = q &^ (kernelGroups - 1)
		encodeBlocks(&dst[0], &src[0], g/kernelGroups, q)
	}
	encodeGroups(dst, src, g, q)
	copy(dst[m:], src[m:])
}

// Decode inverts Encode: it writes into dst the samples whose bit-plane
// form is src. The two must be the same length and must not overlap.
func Decode(dst, src []byte) {
	m, q := shape(dst, src)
	g := 0
	if Vectorized() && q >= kernelGroups {
		g = q &^ (kernelGroups - 1)
		decodeBlocks(&dst[0], &src[0], g/kernelGroups, q)
	}
	decodeGroups(dst, src, g, q)
	copy(dst[m:], src[m:])
}

// Planes is the number of bit-planes Encode writes: eight for each byte
// of a 16-bit sample.
const Planes = 16

// PlaneLen is the length of each bit-plane in the Encode form of n bytes:
// plane b starts at b·PlaneLen(n), and the last n − Planes·PlaneLen(n)
// bytes are the tail.
func PlaneLen(n int) int { return n / Planes }

// kernelGroups is the number of eight-sample groups a kernel iteration
// codes: 64 samples, 128 bytes, one 64-bit word per bit-plane.
const kernelGroups = 8

func shape(dst, src []byte) (m, q int) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("bitshuffle: dst of %d bytes for src of %d", len(dst), len(src)))
	}
	m = len(src) &^ 15
	return m, m / 16
}

// encodeGroups is the portable encoder for groups [g, q): per group, the
// eight low bytes and the eight high bytes each form an 8×8 bit matrix
// whose transpose is one byte of each of eight bit-planes.
func encodeGroups(dst, src []byte, g, q int) {
	hiPlanes := dst[8*q:]
	for ; g < q; g++ {
		s := src[16*g : 16*g+16]
		var lo, hi uint64
		for j := 0; j < 8; j++ {
			lo |= uint64(s[2*j]) << (8 * j)
			hi |= uint64(s[2*j+1]) << (8 * j)
		}
		lo, hi = transpose8(lo), transpose8(hi)
		for b := 0; b < 8; b++ {
			dst[b*q+g] = byte(lo >> (8 * b))
			hiPlanes[b*q+g] = byte(hi >> (8 * b))
		}
	}
}

// decodeGroups is the portable decoder for groups [g, q).
func decodeGroups(dst, src []byte, g, q int) {
	hiPlanes := src[8*q:]
	for ; g < q; g++ {
		var lo, hi uint64
		for b := 0; b < 8; b++ {
			lo |= uint64(src[b*q+g]) << (8 * b)
			hi |= uint64(hiPlanes[b*q+g]) << (8 * b)
		}
		lo, hi = transpose8(lo), transpose8(hi)
		d := dst[16*g : 16*g+16]
		for j := 0; j < 8; j++ {
			d[2*j] = byte(lo >> (8 * j))
			d[2*j+1] = byte(hi >> (8 * j))
		}
	}
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x:
// bit c of byte r moves to bit r of byte c (Hacker's Delight §7-3). It is
// its own inverse.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	x ^= t ^ t<<28
	return x
}
