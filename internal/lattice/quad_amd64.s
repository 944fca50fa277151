//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// AVX2 quad level kernels. One YMM register carries one lattice node's
// four lanes, the cl_double4 of the paper's stepsArray; each node costs
// one vector operation where the portable kernels in quad.go issue four
// scalar ones. Every lane runs the portable kernel's exact operation
// sequence, so the two are bit-identical (DESIGN.md §12):
//
//   - products and sums are separate VMULPD/VADDPD, never VFMADD, so
//     the continuation rounds twice like the reference;
//   - operands sit in the compiled scalar kernel's source order (the
//     node value first in each product, the pd·v[k] product first in
//     the sum), which fixes which NaN payload survives when two meet;
//   - the exercise test is VCMPPD predicate 0x1E (GT_OQ), false on NaN
//     exactly like Go's >;
//   - single precision rounds through float32 with VCVTPD2PS/VCVTPS2PD
//     pairs at the points the portable kernel does.
//
// levelAVX2 (quad_amd64.go) bounds-checks every span before the call;
// these routines trust their arguments.
//
// Registers: SI walks the steps buffer, DI the ladder, CX counts nodes.
// Y8 pu, Y9 pd, Y10 invD, Y11 strike, Y12 American mask, Y13 call mask.
// Y0 carries v[k] from the previous node's load of v[k+1], so each node
// loads the steps buffer once.

// LOADCOEF loads the plan at AX's four per-lane coefficients and
// widens its American and call flags (bools, 0 or 1) into all-ones
// lane masks by subtracting them from zero.
#define LOADCOEF \
	VMOVUPD   QuadPlan_pu(AX), Y8; \
	VMOVUPD   QuadPlan_pd(AX), Y9; \
	VMOVUPD   QuadPlan_invD(AX), Y10; \
	VMOVUPD   QuadPlan_strike(AX), Y11; \
	VPXOR     Y14, Y14, Y14; \
	VPMOVZXBQ QuadPlan_american(AX), Y12; \
	VPSUBQ    Y12, Y14, Y12; \
	VPMOVZXBQ QuadPlan_isCall(AX), Y13; \
	VPSUBQ    Y13, Y14, Y13

// ROUND32 rounds every lane of a YMM register through float32.
#define ROUND32(y, x) \
	VCVTPD2PSY y, x; \
	VCVTPS2PD  x, y

// func runDoubleAVX2(q *QuadPlan, cols int)
TEXT ·runDoubleAVX2(SB), NOSPLIT, $0-16
	MOVQ q+0(FP), AX
	MOVQ cols+8(FP), CX
	TESTQ CX, CX
	JLE  rdDone
	MOVQ QuadPlan_steps(AX), SI
	MOVQ QuadPlan_ladder(AX), DI
	LOADCOEF
	VMOVUPD (SI), Y0

rdLoop:
	VMOVUPD (DI), Y2
	VMULPD  Y10, Y2, Y2           // s = ladder·invD
	VMOVUPD Y2, (DI)
	VMOVUPD 32(SI), Y1            // v[k+1]
	VMULPD  Y8, Y1, Y3            // v[k+1]·pu
	VMULPD  Y9, Y0, Y4            // v[k]·pd
	VADDPD  Y3, Y4, Y0            // c = v[k]·pd + v[k+1]·pu
	VSUBPD  Y11, Y2, Y3           // s − K
	VSUBPD  Y2, Y11, Y4           // K − s
	VBLENDVPD Y13, Y3, Y4, Y3     // moneyness: call ? s−K : K−s
	VCMPPD  $0x1E, Y0, Y3, Y4     // moneyness > c (GT_OQ)
	VANDPD  Y12, Y4, Y4           // American lanes only
	VBLENDVPD Y4, Y3, Y0, Y0
	VMOVUPD Y0, (SI)
	VMOVAPD Y1, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rdLoop
	VZEROUPPER

rdDone:
	RET

// func runSingleAVX2(q *QuadPlan, cols int)
TEXT ·runSingleAVX2(SB), NOSPLIT, $0-16
	MOVQ q+0(FP), AX
	MOVQ cols+8(FP), CX
	TESTQ CX, CX
	JLE  rsDone
	MOVQ QuadPlan_steps(AX), SI
	MOVQ QuadPlan_ladder(AX), DI
	LOADCOEF
	VMOVUPD (SI), Y0

rsLoop:
	VMOVUPD (DI), Y2
	VMULPD  Y10, Y2, Y2
	ROUND32(Y2, X2)
	VMOVUPD Y2, (DI)
	VMOVUPD 32(SI), Y1
	VMULPD  Y8, Y1, Y3
	ROUND32(Y3, X3)
	VMULPD  Y9, Y0, Y4
	ROUND32(Y4, X4)
	VADDPD  Y3, Y4, Y0
	ROUND32(Y0, X0)
	VSUBPD  Y11, Y2, Y3
	VSUBPD  Y2, Y11, Y4
	VBLENDVPD Y13, Y3, Y4, Y3
	ROUND32(Y3, X3)               // per lane, so rounding after the blend is exact
	VCMPPD  $0x1E, Y0, Y3, Y4
	VANDPD  Y12, Y4, Y4
	VBLENDVPD Y4, Y3, Y0, Y0
	VMOVUPD Y0, (SI)
	VMOVAPD Y1, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rsLoop
	VZEROUPPER

rsDone:
	RET

// func contDoubleAVX2(q *QuadPlan, lo, hi int)
TEXT ·contDoubleAVX2(SB), NOSPLIT, $0-24
	MOVQ q+0(FP), AX
	MOVQ lo+8(FP), DX
	MOVQ hi+16(FP), CX
	SUBQ DX, CX
	JLE  cdDone
	MOVQ QuadPlan_steps(AX), SI
	SHLQ $5, DX
	ADDQ DX, SI
	VMOVUPD QuadPlan_pu(AX), Y8
	VMOVUPD QuadPlan_pd(AX), Y9
	VMOVUPD (SI), Y0

cdLoop:
	VMOVUPD 32(SI), Y1
	VMULPD  Y8, Y1, Y3
	VMULPD  Y9, Y0, Y4
	VADDPD  Y3, Y4, Y0
	VMOVUPD Y0, (SI)
	VMOVAPD Y1, Y0
	ADDQ $32, SI
	DECQ CX
	JNZ  cdLoop
	VZEROUPPER

cdDone:
	RET

// func contSingleAVX2(q *QuadPlan, lo, hi int)
TEXT ·contSingleAVX2(SB), NOSPLIT, $0-24
	MOVQ q+0(FP), AX
	MOVQ lo+8(FP), DX
	MOVQ hi+16(FP), CX
	SUBQ DX, CX
	JLE  csDone
	MOVQ QuadPlan_steps(AX), SI
	SHLQ $5, DX
	ADDQ DX, SI
	VMOVUPD QuadPlan_pu(AX), Y8
	VMOVUPD QuadPlan_pd(AX), Y9
	VMOVUPD (SI), Y0

csLoop:
	VMOVUPD 32(SI), Y1
	VMULPD  Y8, Y1, Y3
	ROUND32(Y3, X3)
	VMULPD  Y9, Y0, Y4
	ROUND32(Y4, X4)
	VADDPD  Y3, Y4, Y0
	ROUND32(Y0, X0)
	VMOVUPD Y0, (SI)
	VMOVAPD Y1, Y0
	ADDQ $32, SI
	DECQ CX
	JNZ  csLoop
	VZEROUPPER

csDone:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
