#include "textflag.h"

// VPERMI2B indexes over a 128-byte pair of tables: index bit 6 picks the
// second table. splitLo/splitHi gather the even (low) and odd (high)
// bytes of 64 samples; mergeLo/mergeHi interleave 64 low bytes (first
// table) with 64 high bytes (second) back into samples 0–31 and 32–63.
DATA splitLo<>+0(SB)/8, $0x0e0c0a0806040200
DATA splitLo<>+8(SB)/8, $0x1e1c1a1816141210
DATA splitLo<>+16(SB)/8, $0x2e2c2a2826242220
DATA splitLo<>+24(SB)/8, $0x3e3c3a3836343230
DATA splitLo<>+32(SB)/8, $0x4e4c4a4846444240
DATA splitLo<>+40(SB)/8, $0x5e5c5a5856545250
DATA splitLo<>+48(SB)/8, $0x6e6c6a6866646260
DATA splitLo<>+56(SB)/8, $0x7e7c7a7876747270
GLOBL splitLo<>(SB), RODATA|NOPTR, $64

DATA splitHi<>+0(SB)/8, $0x0f0d0b0907050301
DATA splitHi<>+8(SB)/8, $0x1f1d1b1917151311
DATA splitHi<>+16(SB)/8, $0x2f2d2b2927252321
DATA splitHi<>+24(SB)/8, $0x3f3d3b3937353331
DATA splitHi<>+32(SB)/8, $0x4f4d4b4947454341
DATA splitHi<>+40(SB)/8, $0x5f5d5b5957555351
DATA splitHi<>+48(SB)/8, $0x6f6d6b6967656361
DATA splitHi<>+56(SB)/8, $0x7f7d7b7977757371
GLOBL splitHi<>(SB), RODATA|NOPTR, $64

DATA mergeLo<>+0(SB)/8, $0x4303420241014000
DATA mergeLo<>+8(SB)/8, $0x4707460645054404
DATA mergeLo<>+16(SB)/8, $0x4b0b4a0a49094808
DATA mergeLo<>+24(SB)/8, $0x4f0f4e0e4d0d4c0c
DATA mergeLo<>+32(SB)/8, $0x5313521251115010
DATA mergeLo<>+40(SB)/8, $0x5717561655155414
DATA mergeLo<>+48(SB)/8, $0x5b1b5a1a59195818
DATA mergeLo<>+56(SB)/8, $0x5f1f5e1e5d1d5c1c
GLOBL mergeLo<>(SB), RODATA|NOPTR, $64

DATA mergeHi<>+0(SB)/8, $0x6323622261216020
DATA mergeHi<>+8(SB)/8, $0x6727662665256424
DATA mergeHi<>+16(SB)/8, $0x6b2b6a2a69296828
DATA mergeHi<>+24(SB)/8, $0x6f2f6e2e6d2d6c2c
DATA mergeHi<>+32(SB)/8, $0x7333723271317030
DATA mergeHi<>+40(SB)/8, $0x7737763675357434
DATA mergeHi<>+48(SB)/8, $0x7b3b7a3a79397838
DATA mergeHi<>+56(SB)/8, $0x7f3f7e3e7d3d7c3c
GLOBL mergeHi<>(SB), RODATA|NOPTR, $64

// Plane addressing, shared by both kernels: with R8 = stride, R9 = 3·stride,
// R10 = 5·stride and R11 = 7·stride, bit-plane b of a byte-plane based at
// P is at P + b·stride:
//   7 (P)(R11*1)  6 (P)(R9*2)  5 (P)(R10*1)  4 (P)(R8*4)
//   3 (P)(R9*1)   2 (P)(R8*2)  1 (P)(R8*1)   0 (P)

// SPLIT loads the 128 bytes (64 samples) at SI into Z2 (low bytes) and
// Z3 (high bytes).
#define SPLIT \
	VMOVDQU64 (SI), Z0; \
	VMOVDQU64 64(SI), Z1; \
	VMOVDQA64 Z30, Z2; \
	VPERMI2B  Z1, Z0, Z2; \
	VMOVDQA64 Z31, Z3; \
	VPERMI2B  Z1, Z0, Z3

// PEEL stores the top bit of every byte of Z2 and Z3 as one 64-bit mask
// each, at lo and hi, then doubles both to bring the next bit up.
#define PEEL(lo, hi) \
	VPMOVB2M Z2, K1; \
	VPMOVB2M Z3, K2; \
	KMOVQ    K1, lo; \
	KMOVQ    K2, hi; \
	VPADDB   Z2, Z2, Z2; \
	VPADDB   Z3, Z3, Z3

// FLUSH copies row r (64 bytes) of the stack tile to plane address dst.
#define FLUSH(r, dst) \
	VMOVDQU64 r(SP), Z4; \
	VMOVDQU64 Z4, dst

// func encodeBlocks(dst, src *byte, blocks, stride int)
//
// Eight blocks (1 KiB of samples) at a time go through a 1 KiB tile on
// the stack, sixteen 64-byte rows, one per plane, that then go out as
// whole cache lines. Written straight to the planes, the masks would be
// sixteen 8-byte store streams whose addresses, for a 1 MiB chunk, are
// 64 KiB apart and fall in one L1 set: 0.53 ms per MiB against 0.10 with
// the tile. The last blocks % 8 blocks are stored straight.
TEXT ·encodeBlocks(SB), 0, $1024-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ stride+24(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	LEAQ (DI)(R8*8), DX // byte-plane 1
	VMOVDQU64 splitLo<>(SB), Z30
	VMOVDQU64 splitHi<>(SB), Z31
	MOVQ CX, BX
	SHRQ $3, BX // tiles
	ANDQ $7, CX // blocks after the last tile
	TESTQ BX, BX
	JZ   encodeTail

encodeTile:
	XORQ AX, AX // 8 × the block's index in the tile

encodeTileBlock:
	SPLIT
	LEAQ 0(SP)(AX*1), R12
	PEEL(448(R12), 960(R12))
	PEEL(384(R12), 896(R12))
	PEEL(320(R12), 832(R12))
	PEEL(256(R12), 768(R12))
	PEEL(192(R12), 704(R12))
	PEEL(128(R12), 640(R12))
	PEEL(64(R12), 576(R12))
	PEEL(0(R12), 512(R12))
	ADDQ $128, SI
	ADDQ $8, AX
	CMPQ AX, $64
	JNE  encodeTileBlock

	FLUSH(0, (DI))
	FLUSH(64, (DI)(R8*1))
	FLUSH(128, (DI)(R8*2))
	FLUSH(192, (DI)(R9*1))
	FLUSH(256, (DI)(R8*4))
	FLUSH(320, (DI)(R10*1))
	FLUSH(384, (DI)(R9*2))
	FLUSH(448, (DI)(R11*1))
	FLUSH(512, (DX))
	FLUSH(576, (DX)(R8*1))
	FLUSH(640, (DX)(R8*2))
	FLUSH(704, (DX)(R9*1))
	FLUSH(768, (DX)(R8*4))
	FLUSH(832, (DX)(R10*1))
	FLUSH(896, (DX)(R9*2))
	FLUSH(960, (DX)(R11*1))
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ BX
	JNZ  encodeTile

encodeTail:
	TESTQ CX, CX
	JZ   encodeDone

encodeTailBlock:
	SPLIT
	PEEL((DI)(R11*1), (DX)(R11*1))
	PEEL((DI)(R9*2), (DX)(R9*2))
	PEEL((DI)(R10*1), (DX)(R10*1))
	PEEL((DI)(R8*4), (DX)(R8*4))
	PEEL((DI)(R9*1), (DX)(R9*1))
	PEEL((DI)(R8*2), (DX)(R8*2))
	PEEL((DI)(R8*1), (DX)(R8*1))
	PEEL((DI), (DX))
	ADDQ $128, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  encodeTailBlock

encodeDone:
	VZEROUPPER
	RET

// func decodeBlocks(dst, src *byte, blocks, stride int)
TEXT ·decodeBlocks(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ stride+24(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	LEAQ (SI)(R8*8), DX // byte-plane 1
	VMOVDQU64 mergeLo<>(SB), Z28
	VMOVDQU64 mergeHi<>(SB), Z29
	MOVL $0x01010101, AX
	VPBROADCASTD AX, Z31

decodeLoop:
	// Bit 7 first: each masked add of ones sets the bit the previous
	// doubling made room for.
	KMOVQ        (SI)(R11*1), K1
	KMOVQ        (DX)(R11*1), K2
	VMOVDQU8.Z   Z31, K1, Z2
	VMOVDQU8.Z   Z31, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R9*2), K1
	KMOVQ        (DX)(R9*2), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R10*1), K1
	KMOVQ        (DX)(R10*1), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R8*4), K1
	KMOVQ        (DX)(R8*4), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R9*1), K1
	KMOVQ        (DX)(R9*1), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R8*2), K1
	KMOVQ        (DX)(R8*2), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI)(R8*1), K1
	KMOVQ        (DX)(R8*1), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3
	VPADDB       Z2, Z2, Z2
	VPADDB       Z3, Z3, Z3
	KMOVQ        (SI), K1
	KMOVQ        (DX), K2
	VPADDB       Z31, Z2, K1, Z2
	VPADDB       Z31, Z3, K2, Z3

	VMOVDQA64 Z28, Z4
	VPERMI2B  Z3, Z2, Z4 // samples 0–31
	VMOVDQA64 Z29, Z5
	VPERMI2B  Z3, Z2, Z5 // samples 32–63
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)

	ADDQ $128, DI
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  decodeLoop
	VZEROUPPER
	RET
