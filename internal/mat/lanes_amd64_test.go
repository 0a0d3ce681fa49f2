package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLaneKernelsAgree runs the AVX2 and the portable kernel on the
// same matrices and requires the same float64 from both, at a few
// iteration counts short of convergence and at sysid's 300. The inputs
// are random thermal dynamics at p = 1..27, first order and companion,
// and the edge cases of TestSpectralRadiusMatchesReference: the huge
// rescale, underflowing entries, a nilpotent matrix, negative entries
// and a companion with A2 = 0.
func TestLaneKernelsAgree(t *testing.T) {
	if !hasAVX2() {
		t.Skip("this CPU has no AVX2, so only the portable kernel runs here")
	}
	check := func(name string, top *Dense) {
		t.Helper()
		for _, iters := range []int{1, 2, 7, 300} {
			got, err := spectralRadius(top, iters, avx2Lanes)
			want, wantErr := spectralRadius(top, iters, portableLanes)
			checkSameEstimate(t, fmt.Sprintf("%s iters=%d", name, iters), got, err, want, wantErr)
		}
	}
	rng := rand.New(rand.NewSource(18))
	for p := 1; p <= 27; p++ {
		check(fmt.Sprintf("p=%d order=1", p), thermalDynamics(rng, p, 1))
		check(fmt.Sprintf("p=%d order=2", p), thermalDynamics(rng, p, 2))
	}
	h := 1e308
	a2Zero := NewDense(3, 6)
	for i := 0; i < 3; i++ {
		a2Zero.Set(i, i, 0.97)
	}
	for name, top := range map[string]*Dense{
		"huge-overflow":           NewDenseData(2, 2, []float64{h, h, h, h}),
		"huge-finite":             NewDenseData(2, 2, []float64{1e200, 0, 0, 2e200}),
		"huge-companion":          NewDenseData(2, 4, []float64{1e200, 0, -3e199, 0, 0, 2e200, 0, 5e199}),
		"huge-overflow-companion": NewDenseData(2, 4, []float64{h, h, -h, h, h, h, h, -h}),
		"tiny":                    NewDenseData(2, 2, []float64{1e-300, 1e-301, 0, 1e-300}),
		"tiny-companion":          NewDenseData(2, 4, []float64{1e-300, 1e-301, -1e-300, 0, 0, 1e-300, 2e-301, -1e-301}),
		"nilpotent":               NewDenseData(3, 3, []float64{0, 1, 0, 0, 0, 1, 0, 0, 0}),
		"zero-companion":          NewDense(3, 6),
		"negative":                NewDenseData(2, 4, []float64{-0.9, -0.05, 0.3, -0.01, -0.02, -0.8, -0.01, 0.2}),
		"a2-zero":                 a2Zero,
		"a2-zero-explicit":        companion(a2Zero),
	} {
		check(name, top)
	}
}

// TestAVX2WrappersCheckLengths: the assembly has no bounds checks, so
// its Go wrappers must refuse every length that would let it read or
// write past a slice. The checks run before any AVX2 instruction, so
// this test runs on any amd64 CPU.
func TestAVX2WrappersCheckLengths(t *testing.T) {
	quads := func(n int) [][4]float64 { return make([][4]float64, n) }
	top := make([]float64, 2*4)
	for name, call := range map[string]func(){
		"short top":    func() { mulVecLanes16(top[:7], 2, 4, 1, quads(16), quads(16)) },
		"m > n":        func() { mulVecLanes16(make([]float64, 20), 5, 4, 1, quads(16), quads(16)) },
		"negative m":   func() { mulVecLanes16(top, -1, 4, 1, quads(16), quads(16)) },
		"zero n":       func() { mulVecLanes16(nil, 0, 0, 1, nil, nil) },
		"short x":      func() { mulVecLanes16(top, 2, 4, 1, quads(15), quads(16)) },
		"long y":       func() { mulVecLanes16(top, 2, 4, 1, quads(16), quads(17)) },
		"short y rows": func() { normalizeLanes16(quads(15), 4, quads(4)) },
		"zero rows":    func() { normalizeLanes16(nil, 0, quads(4)) },
		"short lam":    func() { normalizeLanes16(quads(16), 4, quads(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
