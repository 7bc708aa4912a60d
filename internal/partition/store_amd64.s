#include "textflag.h"

// The streaming block store of the scatter (see scatter.go): whole 64-byte
// lines loaded from the stage and written with non-temporal stores, and
// the fence that orders them before the stores after the scatter.

// func streamLinesSSE2(dst, src unsafe.Pointer, n int)
//
// n is a positive multiple of 64 and dst is 64-byte aligned (MOVNTO
// faults on an address that is not 16-byte aligned); src need not be.
TEXT ·streamLinesSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

line:
	MOVOU  (SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVNTO X0, (DI)
	MOVNTO X1, 16(DI)
	MOVNTO X2, 32(DI)
	MOVNTO X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $64, CX
	JNZ    line
	RET

// func sfence()
TEXT ·sfence(SB), NOSPLIT, $0-0
	SFENCE
	RET
