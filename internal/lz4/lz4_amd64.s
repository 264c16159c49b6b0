#include "textflag.h"

// Baseline x86-64 only (scalar, SSE2, BSF): no CPUID check is needed.

// func encodeBlock(dst, src []byte, table *[4096]uint32, si, anchor int) (int, int)
//
// encodeBlockGo's parse, decision for decision. Registers:
//   SI src            DI dst, the next byte to write
//   R8 si             R9 anchor           R10 sn (last match start)
//   R11 matchEnd      R12 searchSteps     R13 table
//   R14 hash7 multiplier                  AX BX CX DX R15 scratch
TEXT ·encodeBlock(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R10
	MOVQ table+48(FP), R13
	LEAQ -5(R10), R11
	SUBQ $12, R10
	MOVQ si+56(FP), R8
	MOVQ anchor+64(FP), R9
	XORL R12, R12
	MOVQ $0xcf1bbcdcbfa56300, R14 // 58295818150454627<<8: hash7(u) is u times this, >>52
	CMPQ R8, R10
	JGT  encodeDone

probe:
	// cur = load64(src, si); ref = table[hash7(cur)]; table[...] = si.
	MOVQ  (SI)(R8*1), AX
	MOVQ  AX, DX
	IMULQ R14, DX
	SHRQ  $52, DX
	MOVL  (R13)(DX*4), BX
	MOVL  R8, (R13)(DX*4)
	MOVQ  (SI)(BX*1), CX
	XORQ  AX, CX // x
	TESTL CX, CX
	JNZ   miss
	MOVQ  R8, DX
	SUBQ  BX, DX
	CMPQ  DX, $65535
	JLE   found

miss:
	INCQ R12
	MOVQ R12, DX
	SHRQ $6, DX
	LEAQ 1(R8)(DX*1), R8
	CMPQ R8, R10
	JLE  probe
	JMP  encodeDone

found:
	// Forward extension: end (R15) is the first mismatch, at most
	// matchEnd. x holds the first 8 bytes' comparison.
	TESTQ CX, CX
	JZ    long
	BSFQ  CX, CX
	SHRQ  $3, CX
	LEAQ  (R8)(CX*1), R15
	JMP   backward

long:
	LEAQ 8(R8), R15
	LEAQ 8(BX), DX   // r
	LEAQ -4(R10), AX // the last end with 16 bytes of src left

long16:
	CMPQ     R15, AX
	JGT      longTail
	MOVOU    (SI)(R15*1), X0
	MOVOU    (SI)(DX*1), X1
	PCMPEQB  X1, X0
	PMOVMSKB X0, CX
	XORL     $0xffff, CX
	JNZ      longFound
	ADDQ     $16, R15
	ADDQ     $16, DX
	JMP      long16

longFound:
	BSFL CX, CX
	ADDQ CX, R15
	JMP  clamp

longTail:
	CMPQ R15, R11
	JGE  clamp
	MOVB (SI)(R15*1), CX
	CMPB CX, (SI)(DX*1)
	JNE  clamp
	INCQ R15
	INCQ DX
	JMP  longTail

clamp:
	CMPQ    R15, R11
	CMOVQGT R11, R15

backward:
	// Extend backwards over bytes already counted as literals.
	CMPQ  R8, R9
	JLE   emit
	TESTQ BX, BX
	JZ    emit
	MOVB  -1(SI)(R8*1), CX
	CMPB  CX, -1(SI)(BX*1)
	JNE   emit
	DECQ  R8
	DECQ  BX
	JMP   backward

emit:
	// CX litLen, DX match length - 4, R8 offset.
	MOVQ    R8, CX
	SUBQ    R9, CX
	MOVQ    R15, DX
	SUBQ    R8, DX
	SUBQ    $4, DX
	SUBQ    BX, R8
	MOVQ    $15, AX
	MOVQ    CX, BX
	CMPQ    BX, AX
	CMOVQHI AX, BX
	SHLQ    $4, BX
	MOVQ    DX, R12
	CMPQ    R12, AX
	CMOVQHI AX, R12
	ORQ     R12, BX
	MOVB    BX, (DI)

	// A length of 15…269 takes one extension byte. It is written
	// whether or not it is needed (the next bytes overwrite it) and
	// counted only if it is, so the common sequence takes no branch on
	// its lengths.
	CMPQ CX, $270
	JAE  litExtLong
	LEAQ -15(CX), BX
	MOVB BX, 1(DI)
	CMPQ CX, $15
	SBBQ $-2, DI // DI += 2 - (litLen < 15)

literals:
	// Up to 16 in one copy unless src ends within 16 bytes of anchor;
	// then 16 at a time while 9 or more are left, and 8. No load ends
	// past anchor+16 or si+8, both within src, and no store past 16
	// bytes beyond the run's start or 8 beyond its end, both within
	// CompressBound's spare bytes.
	LEAQ  (SI)(R9*1), AX
	XORL  BX, BX
	LEAQ  -4(R10), R12
	CMPQ  R9, R12
	JGT   lit16
	MOVOU (AX), X0
	MOVOU X0, (DI)
	MOVL  $16, BX
	CMPQ  CX, BX
	JBE   offset

lit16:
	LEAQ  8(BX), R12
	CMPQ  R12, CX
	JGE   lit8
	MOVOU (AX)(BX*1), X0
	MOVOU X0, (DI)(BX*1)
	ADDQ  $16, BX
	JMP   lit16

lit8:
	CMPQ BX, CX
	JGE  offset
	MOVQ (AX)(BX*1), R12
	MOVQ R12, (DI)(BX*1)

offset:
	ADDQ CX, DI
	MOVW R8, (DI)
	CMPQ DX, $270
	JAE  matchExtLong
	LEAQ -15(DX), BX
	MOVB BX, 2(DI)
	CMPQ DX, $15
	SBBQ $-3, DI // DI += 3 - (mLen-4 < 15)

emitted:
	// si = anchor = end; unless past sn, enter si-2 and probe si.
	MOVQ  R15, R8
	MOVQ  R15, R9
	XORL  R12, R12
	CMPQ  R8, R10
	JGT   encodeDone
	MOVQ  -2(SI)(R8*1), AX
	IMULQ R14, AX
	SHRQ  $52, AX
	LEAQ  -2(R8), BX
	MOVL  BX, (R13)(AX*4)
	JMP   probe

litExtLong:
	INCQ DI
	LEAQ -15(CX), BX

litExt:
	CMPQ BX, $255
	JB   litExtLast
	MOVB $255, (DI)
	INCQ DI
	SUBQ $255, BX
	JMP  litExt

litExtLast:
	MOVB BX, (DI)
	INCQ DI
	JMP  literals

matchExtLong:
	ADDQ $2, DI
	SUBQ $15, DX

matchExt:
	CMPQ DX, $255
	JB   matchExtLast
	MOVB $255, (DI)
	INCQ DI
	SUBQ $255, DX
	JMP  matchExt

matchExtLast:
	MOVB DX, (DI)
	INCQ DI
	JMP  emitted

encodeDone:
	MOVQ dst_base+0(FP), AX
	SUBQ AX, DI
	MOVQ DI, ret+72(FP)
	MOVQ R9, ret1+80(FP)
	RET

// Row p (32 bytes) for a match offset p below 16: mask and multiplier
// that turn load64(dst, d-p) into the first 8 bytes of the match (the
// low p bytes times a 1 every p bytes; 1 and all ones from 8 up), how far
// back from d+8 the next 8 are (a whole number of periods, at least 8),
// and the store step for the 16-byte pattern (a whole number of periods,
// at most 16).
DATA shortOffsets<>+0x020(SB)/8, $0x00000000000000ff
DATA shortOffsets<>+0x028(SB)/8, $0x0101010101010101
DATA shortOffsets<>+0x030(SB)/8, $8
DATA shortOffsets<>+0x038(SB)/8, $16
DATA shortOffsets<>+0x040(SB)/8, $0x000000000000ffff
DATA shortOffsets<>+0x048(SB)/8, $0x0001000100010001
DATA shortOffsets<>+0x050(SB)/8, $8
DATA shortOffsets<>+0x058(SB)/8, $16
DATA shortOffsets<>+0x060(SB)/8, $0x0000000000ffffff
DATA shortOffsets<>+0x068(SB)/8, $0x0001000001000001
DATA shortOffsets<>+0x070(SB)/8, $9
DATA shortOffsets<>+0x078(SB)/8, $15
DATA shortOffsets<>+0x080(SB)/8, $0x00000000ffffffff
DATA shortOffsets<>+0x088(SB)/8, $0x0000000100000001
DATA shortOffsets<>+0x090(SB)/8, $8
DATA shortOffsets<>+0x098(SB)/8, $16
DATA shortOffsets<>+0x0a0(SB)/8, $0x000000ffffffffff
DATA shortOffsets<>+0x0a8(SB)/8, $0x0000010000000001
DATA shortOffsets<>+0x0b0(SB)/8, $10
DATA shortOffsets<>+0x0b8(SB)/8, $15
DATA shortOffsets<>+0x0c0(SB)/8, $0x0000ffffffffffff
DATA shortOffsets<>+0x0c8(SB)/8, $0x0001000000000001
DATA shortOffsets<>+0x0d0(SB)/8, $12
DATA shortOffsets<>+0x0d8(SB)/8, $12
DATA shortOffsets<>+0x0e0(SB)/8, $0x00ffffffffffffff
DATA shortOffsets<>+0x0e8(SB)/8, $0x0100000000000001
DATA shortOffsets<>+0x0f0(SB)/8, $14
DATA shortOffsets<>+0x0f8(SB)/8, $14
DATA shortOffsets<>+0x100(SB)/8, $-1
DATA shortOffsets<>+0x108(SB)/8, $1
DATA shortOffsets<>+0x110(SB)/8, $8
DATA shortOffsets<>+0x118(SB)/8, $16
DATA shortOffsets<>+0x120(SB)/8, $-1
DATA shortOffsets<>+0x128(SB)/8, $1
DATA shortOffsets<>+0x130(SB)/8, $9
DATA shortOffsets<>+0x138(SB)/8, $9
DATA shortOffsets<>+0x140(SB)/8, $-1
DATA shortOffsets<>+0x148(SB)/8, $1
DATA shortOffsets<>+0x150(SB)/8, $10
DATA shortOffsets<>+0x158(SB)/8, $10
DATA shortOffsets<>+0x160(SB)/8, $-1
DATA shortOffsets<>+0x168(SB)/8, $1
DATA shortOffsets<>+0x170(SB)/8, $11
DATA shortOffsets<>+0x178(SB)/8, $11
DATA shortOffsets<>+0x180(SB)/8, $-1
DATA shortOffsets<>+0x188(SB)/8, $1
DATA shortOffsets<>+0x190(SB)/8, $12
DATA shortOffsets<>+0x198(SB)/8, $12
DATA shortOffsets<>+0x1a0(SB)/8, $-1
DATA shortOffsets<>+0x1a8(SB)/8, $1
DATA shortOffsets<>+0x1b0(SB)/8, $13
DATA shortOffsets<>+0x1b8(SB)/8, $13
DATA shortOffsets<>+0x1c0(SB)/8, $-1
DATA shortOffsets<>+0x1c8(SB)/8, $1
DATA shortOffsets<>+0x1d0(SB)/8, $14
DATA shortOffsets<>+0x1d8(SB)/8, $14
DATA shortOffsets<>+0x1e0(SB)/8, $-1
DATA shortOffsets<>+0x1e8(SB)/8, $1
DATA shortOffsets<>+0x1f0(SB)/8, $15
DATA shortOffsets<>+0x1f8(SB)/8, $15
GLOBL shortOffsets<>(SB), RODATA|NOPTR, $512

// func decodeSequences(dst, src []byte, di, si int) (int, int)
//
// Every check comes before the sequence's first store, so a sequence is
// either decoded whole or left to the Go careful loop as it stands.
// Registers:
//   R8 dst            R9 end of dst       R12 src     R10 end of src
//   DI, SI the next byte to write and to read
//   AX match length   BX literals         CX literal length
//   R11 offset        R13 after the sequence in src
//   R14 match start in dst                DX R15 scratch
TEXT ·decodeSequences(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R9
	ADDQ R8, R9
	MOVQ src_base+24(FP), R12
	MOVQ src_len+32(FP), R10
	ADDQ R12, R10
	MOVQ di+48(FP), DI
	ADDQ R8, DI
	MOVQ si+56(FP), SI
	ADDQ R12, SI

decodeLoop:
	CMPQ    SI, R10
	JAE     decodeOut
	MOVBQZX (SI), AX
	LEAQ    1(SI), BX
	MOVQ    AX, CX
	SHRQ    $4, CX
	CMPQ    CX, $15
	JNE     litLenDone

litLenExt:
	CMPQ    BX, R10
	JAE     decodeOut
	MOVBQZX (BX), DX
	INCQ    BX
	ADDQ    DX, CX
	CMPQ    DX, $255
	JEQ     litLenExt

litLenDone:
	// src holds the literals, the offset and 14 bytes more: the
	// literal copy reads up to 15 past the run.
	LEAQ    16(BX)(CX*1), DX
	CMPQ    DX, R10
	JA      decodeOut
	MOVWQZX (BX)(CX*1), R11
	LEAQ    2(BX)(CX*1), R13
	LEAQ    (DI)(CX*1), R14
	MOVQ    R14, DX
	SUBQ    R8, DX
	TESTQ   R11, R11
	JZ      decodeOut
	CMPQ    R11, DX
	JA      decodeOut
	ANDQ    $15, AX
	CMPQ    AX, $15
	JNE     matchLenDone

matchLenExt:
	CMPQ    R13, R10
	JAE     decodeOut
	MOVBQZX (R13), DX
	INCQ    R13
	ADDQ    DX, AX
	CMPQ    DX, $255
	JEQ     matchLenExt

matchLenDone:
	// dst holds the literals, the match and 16 bytes more: every copy
	// stores up to 15 past its end.
	ADDQ  $4, AX
	LEAQ  16(R14)(AX*1), DX
	CMPQ  DX, R9
	JA    decodeOut
	MOVOU (BX), X0
	MOVOU X0, (DI)
	CMPQ  CX, $16
	JA    litLong

litCopied:
	MOVQ  R14, DX
	SUBQ  R11, DX // match source
	LEAQ  (R14)(AX*1), DI
	MOVQ  R13, SI
	CMPQ  R11, $16
	JB    shortOffset
	MOVOU (DX), X0
	MOVOU X0, (R14)

copy16:
	ADDQ  $16, R14
	CMPQ  R14, DI
	JAE   decodeLoop
	ADDQ  $16, DX
	MOVOU (DX), X0
	MOVOU X0, (R14)
	JMP   copy16

litLong:
	MOVQ $16, DX

litLoop:
	MOVOU (BX)(DX*1), X0
	MOVOU X0, (DI)(DX*1)
	ADDQ  $16, DX
	CMPQ  DX, CX
	JB    litLoop
	JMP   litCopied

shortOffset:
	// The match overlaps its own output: build 16 bytes of its
	// pattern and store them a whole number of periods apart.
	LEAQ       shortOffsets<>(SB), R15
	SHLQ       $5, R11
	ADDQ       R11, R15
	MOVQ       (DX), DX
	ANDQ       (R15), DX
	IMULQ      8(R15), DX
	MOVQ       DX, (R14)
	MOVQ       DX, X0
	MOVQ       R14, DX
	SUBQ       16(R15), DX
	MOVQ       8(DX), X1
	PUNPCKLQDQ X1, X0
	MOVQ       24(R15), DX

pattern:
	MOVOU X0, (R14)
	ADDQ  DX, R14
	CMPQ  R14, DI
	JB    pattern
	JMP   decodeLoop

decodeOut:
	SUBQ R8, DI
	MOVQ DI, ret+64(FP)
	SUBQ R12, SI
	MOVQ SI, ret1+72(FP)
	RET
