package mat

import "fmt"

// avx2Lanes is the assembly kernel (lanes_amd64.s): sixteen lanes, four
// to a ymm register. Every lane computes the float64 the portable
// kernel computes:
//   - packed VMULPD, VADDPD, VDIVPD and VSQRTPD round each element
//     exactly as the scalar MULSD, ADDSD, DIVSD and SQRTSD do;
//   - there is no VFMADD* or any other fused multiply-add, because
//     fusing skips the product's rounding and changes the bits;
//   - MAXPD differs from Go's `if a > mx { mx = a }` only on equal
//     values or NaN, and the kernel passes a first and mx second, where
//     MAXPD returns its second operand on both, as Go keeps mx. A live
//     lane holds no NaN anyway: the matrix entries are finite and at
//     most 1e150 after the rescale, and x is normalized.
var avx2Lanes = laneKernel{width: 16, mulVec: mulVecLanes16, normalize: normalizeLanes16}

func init() {
	if hasAVX2() {
		lanes = useLanes(avx2Lanes)
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers across context switches: CPUID leaf 1 ECX reports OSXSAVE
// (bit 27) and AVX (bit 28), XCR0 enables the SSE and AVX state (bits 1
// and 2), and CPUID leaf 7 EBX reports AVX2 (bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// mulVecLanes16 and normalizeLanes16 check every length the assembly
// relies on, which has no bounds checks of its own: top holds at least
// m*n entries, m <= n, x and y hold n rows of four quads each, and lam
// one such row.
func mulVecLanes16(top []float64, m, n int, unit float64, x, y [][4]float64) {
	if m < 0 || n <= 0 || m > n || len(top) < m*n || len(x) != 4*n || len(y) != 4*n {
		panic(fmt.Sprintf("mat: 16-lane matvec of a %dx%d top with lengths %d, %d, %d", m, n, len(top), len(x), len(y)))
	}
	mulVecAVX2(top, m, n, unit, x, y)
}

func normalizeLanes16(y [][4]float64, n int, lam [][4]float64) {
	if n <= 0 || len(y) != 4*n || len(lam) != 4 {
		panic(fmt.Sprintf("mat: 16-lane normalize of %d entries with lengths %d, %d", n, len(y), len(lam)))
	}
	normalizeAVX2(y, n, (*[4][4]float64)(lam))
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (EAX, EDX = low, high 32 bits); call it only
// when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulVecAVX2 is mulVecLanes16 without the length checks.
//
//go:noescape
func mulVecAVX2(top []float64, m, n int, unit float64, x, y [][4]float64)

// normalizeAVX2 is normalizeLanes16 without the length checks.
//
//go:noescape
func normalizeAVX2(y [][4]float64, n int, lam *[4][4]float64)
