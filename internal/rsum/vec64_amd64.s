#include "textflag.h"

// The AVX2 tile primitive of the vectorized kernel (see vec64.go) and the
// CPUID check that enables it. Every routine that touches a Y register
// ends in VZEROUPPER, so the SSE code the Go compiler emits around the
// call pays no state-transition penalty.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28),
// the OS saves the XMM and YMM state (XCR0 bits 1 and 2) and
// CPUID.(7,0):EBX has AVX2 (bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func scanTileAVX2(tile []float64) (m float64, nan bool)
//
// Y0, Y1: running max of |x| (two chains); Y2: OR of the NaN masks;
// Y3: the |x| mask.
TEXT ·scanTileAVX2(SB), NOSPLIT, $0-33
	MOVQ         tile_base+0(FP), SI
	MOVQ         tile_len+8(FP), CX
	VBROADCASTSD absmask<>(SB), Y3
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           scan4

scan8:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VCMPPD  $3, Y4, Y4, Y6 // unordered with itself: NaN
	VCMPPD  $3, Y5, Y5, Y7
	VANDPD  Y3, Y4, Y4
	VANDPD  Y3, Y5, Y5
	VORPD   Y6, Y2, Y2
	VMAXPD  Y4, Y0, Y0
	VORPD   Y7, Y2, Y2
	VMAXPD  Y5, Y1, Y1
	ADDQ    $64, SI
	DECQ    DX
	JNZ     scan8
	VMAXPD  Y1, Y0, Y0

scan4:
	TESTQ   $4, CX
	JZ      scanfold
	VMOVUPD (SI), Y4
	VCMPPD  $3, Y4, Y4, Y6
	VANDPD  Y3, Y4, Y4
	VORPD   Y6, Y2, Y2
	VMAXPD  Y4, Y0, Y0
	ADDQ    $32, SI

scanfold:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVMSKPD    Y2, AX
	ANDQ         $3, CX
	JZ           scandone

scan1:
	VMOVSD (SI), X4
	VCMPSD $3, X4, X4, X6
	VANDPD X3, X4, X4
	VORPD  X6, X2, X2
	VMAXSD X4, X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    scan1
	VMOVMSKPD X2, DX
	ORL       DX, AX

scandone:
	VMOVSD X0, m+24(FP)
	TESTL  AX, AX
	SETNE  nan+32(FP)
	VZEROUPPER
	RET

// One level of the extraction: Y12 is the remainder r, E the level's
// extractor, A its accumulator. q = (r + E) − E; A += q. REST then takes
// q out of r for the level below.
#define LEVEL(E, A) \
	VADDPD E, Y12, Y13 \
	VSUBPD E, Y13, Y13 \
	VADDPD Y13, A, A

#define REST VSUBPD Y13, Y12, Y12

// func extractTileAVX2(tile []float64, ext0 float64, live int) (sum [MaxLevels]float64)
//
// Y0–Y5: the extractors, broadcast — each W64 = 40 binades below the one
// before, formed in the exponent field (the ones past live are never
// used); Y6–Y11: the lane accumulators, zero at entry and held in
// registers across the loop. The level count is a compare-and-skip that
// never changes within a call. The lanes are folded two levels at a
// time; sum[2:] is left unset when live ≤ 2.
#define EXTRACTOR(X, Y) \
	VMOVQ        AX, X \
	VPBROADCASTQ X, Y  \
	SUBQ         DX, AX

TEXT ·extractTileAVX2(SB), NOSPLIT, $0-88
	MOVQ   tile_base+0(FP), SI
	MOVQ   tile_len+8(FP), CX
	MOVQ   ext0+24(FP), AX
	MOVQ   live+32(FP), BX
	MOVQ   $(40<<52), DX
	EXTRACTOR(X0, Y0)
	EXTRACTOR(X1, Y1)
	EXTRACTOR(X2, Y2)
	EXTRACTOR(X3, Y3)
	EXTRACTOR(X4, Y4)
	EXTRACTOR(X5, Y5)
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	SHRQ   $2, CX
	JZ     extfold

extloop:
	VMOVUPD (SI), Y12
	ADDQ    $32, SI
	LEVEL(Y0, Y6)
	CMPQ    BX, $1
	JE      extnext
	REST
	LEVEL(Y1, Y7)
	CMPQ    BX, $2
	JE      extnext
	REST
	LEVEL(Y2, Y8)
	CMPQ    BX, $3
	JE      extnext
	REST
	LEVEL(Y3, Y9)
	CMPQ    BX, $4
	JE      extnext
	REST
	LEVEL(Y4, Y10)
	CMPQ    BX, $5
	JE      extnext
	REST
	LEVEL(Y5, Y11)

extnext:
	DECQ CX
	JNZ  extloop

extfold:
	VHADDPD      Y7, Y6, Y6     // [a0+a1, b0+b1, a2+a3, b2+b3]
	VEXTRACTF128 $1, Y6, X13
	VADDPD       X13, X6, X6
	VMOVUPD      X6, sum_0+40(FP)
	CMPQ         BX, $2
	JBE          extdone
	VHADDPD      Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X13
	VADDPD       X13, X8, X8
	VMOVUPD      X8, sum_2+56(FP)
	VHADDPD      Y11, Y10, Y10
	VEXTRACTF128 $1, Y10, X13
	VADDPD       X13, X10, X10
	VMOVUPD      X10, sum_4+72(FP)

extdone:
	VZEROUPPER
	RET
