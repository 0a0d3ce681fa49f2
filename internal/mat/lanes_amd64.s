#include "textflag.h"

// The 16-lane spectral-radius kernel. Lanes are interleaved: entry j of
// lane l is at x[4*j+l/4][l%4], so one row's 16 lanes are 128
// contiguous bytes, four ymm registers. Every lane computes the float64 the
// portable kernel (lanes.go) computes, in the same order; see the
// argument at avx2Lanes (lanes_amd64.go). No instruction here fuses a
// multiply and an add. Each function runs VZEROUPPER before it returns,
// and none uses X15, which Go code expects to hold zero.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func mulVecAVX2(top []float64, m, n int, unit float64, x, y [][4]float64)
//
// y[i][l] = Σ_j top[i][j]·x[j][l] for i < m, summed with j ascending
// from +0 in four accumulators Y0-Y3 (lanes 0-3, 4-7, 8-11, 12-15);
// then y[m+k][l] = unit·x[k][l] for the implicit identity rows.
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-96
	MOVQ top_base+0(FP), SI
	MOVQ m+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ x_base+48(FP), DI
	MOVQ y_base+72(FP), DX
	TESTQ R8, R8
	JEQ  identity

row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DI, BX
	MOVQ R9, CX

col:
	VBROADCASTSD (SI), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(BX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(BX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(BX), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	ADDQ $128, BX
	DECQ CX
	JNE  col

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	DECQ R8
	JNE  row

identity:
	MOVQ R9, CX
	SUBQ m+24(FP), CX
	JEQ  mulDone
	VBROADCASTSD unit+40(FP), Y4
	MOVQ DI, BX

copyRow:
	VMULPD (BX), Y4, Y0
	VMULPD 32(BX), Y4, Y1
	VMULPD 64(BX), Y4, Y2
	VMULPD 96(BX), Y4, Y3
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, BX
	ADDQ $128, DX
	DECQ CX
	JNE  copyRow

mulDone:
	VZEROUPPER
	RET

// func normalizeAVX2(y [][4]float64, n int, lam *[4][4]float64)
//
// Norm2's steps in every lane, rows ascending in each pass: the largest
// magnitude mx; s = Σ (y/mx)²; lam = mx·√s; y /= lam. A lane whose mx
// is 0 divides by 1 instead of 0, so its s and lam are 0 and its y
// stays as it is. Registers: Y12 the magnitude mask, Y13 zero, Y14
// one; Y4-Y7 the divisors (mx, then lam, or 1 where that is 0); Y8-Y11
// the sums.
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-40
	MOVQ y_base+0(FP), SI
	MOVQ n+24(FP), R9
	MOVQ lam+32(FP), DI
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X12
	VBROADCASTSD X12, Y12
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14
	VBROADCASTSD X14, Y14
	VXORPD Y13, Y13, Y13

	// mx = max(|y|, mx): VMAXPD's second operand is mx, so an equal
	// value or a NaN keeps mx, as Go's `if a > mx { mx = a }` does.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, BX
	MOVQ R9, CX

maxRow:
	VANDPD (BX), Y12, Y8
	VMAXPD Y0, Y8, Y0
	VANDPD 32(BX), Y12, Y9
	VMAXPD Y1, Y9, Y1
	VANDPD 64(BX), Y12, Y10
	VMAXPD Y2, Y10, Y2
	VANDPD 96(BX), Y12, Y11
	VMAXPD Y3, Y11, Y3
	ADDQ $128, BX
	DECQ CX
	JNE  maxRow

	// d = mx, or 1 where mx == 0 (mx is +0 there, so OR-ing in 1's
	// bits gives 1 exactly).
	VCMPPD $0, Y13, Y0, Y4
	VANDPD Y14, Y4, Y4
	VORPD  Y0, Y4, Y4
	VCMPPD $0, Y13, Y1, Y5
	VANDPD Y14, Y5, Y5
	VORPD  Y1, Y5, Y5
	VCMPPD $0, Y13, Y2, Y6
	VANDPD Y14, Y6, Y6
	VORPD  Y2, Y6, Y6
	VCMPPD $0, Y13, Y3, Y7
	VANDPD Y14, Y7, Y7
	VORPD  Y3, Y7, Y7

	// s += (y/d)·(y/d), from +0.
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, BX
	MOVQ R9, CX

sumRow:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VDIVPD Y4, Y0, Y0
	VDIVPD Y5, Y1, Y1
	VDIVPD Y6, Y2, Y2
	VDIVPD Y7, Y3, Y3
	VMULPD Y0, Y0, Y0
	VMULPD Y1, Y1, Y1
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y0, Y8, Y8
	VADDPD Y1, Y9, Y9
	VADDPD Y2, Y10, Y10
	VADDPD Y3, Y11, Y11
	ADDQ $128, BX
	DECQ CX
	JNE  sumRow

	// lam = d·√s: mx·√s where mx > 0, and 1·√0 = 0 where mx == 0.
	VSQRTPD Y8, Y8
	VSQRTPD Y9, Y9
	VSQRTPD Y10, Y10
	VSQRTPD Y11, Y11
	VMULPD  Y8, Y4, Y8
	VMULPD  Y9, Y5, Y9
	VMULPD  Y10, Y6, Y10
	VMULPD  Y11, Y7, Y11
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)

	// y /= lam, or /= 1 where lam == 0.
	VCMPPD $0, Y13, Y8, Y4
	VANDPD Y14, Y4, Y4
	VORPD  Y8, Y4, Y4
	VCMPPD $0, Y13, Y9, Y5
	VANDPD Y14, Y5, Y5
	VORPD  Y9, Y5, Y5
	VCMPPD $0, Y13, Y10, Y6
	VANDPD Y14, Y6, Y6
	VORPD  Y10, Y6, Y6
	VCMPPD $0, Y13, Y11, Y7
	VANDPD Y14, Y7, Y7
	VORPD  Y11, Y7, Y7
	MOVQ SI, BX
	MOVQ R9, CX

divRow:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VDIVPD  Y4, Y0, Y0
	VDIVPD  Y5, Y1, Y1
	VDIVPD  Y6, Y2, Y2
	VDIVPD  Y7, Y3, Y3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $128, BX
	DECQ CX
	JNE  divRow

	VZEROUPPER
	RET
