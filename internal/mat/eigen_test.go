package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	e, err := NewEigenSym(a)
	if err != nil {
		t.Fatalf("NewEigenSym: %v", err)
	}
	if !almostEqual(e.Values[0], 1, 1e-10) || !almostEqual(e.Values[1], 3, 1e-10) {
		t.Errorf("Values = %v, want [1 3]", e.Values)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 1})
	e, err := NewEigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if !almostEqual(e.Values[i], want[i], 1e-12) {
			t.Errorf("Values[%d] = %v, want %v", i, e.Values[i], want[i])
		}
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(10)
		a := spdMatrix(rng, n)
		e, err := NewEigenSym(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Ascending order.
		if !sort.Float64sAreSorted(e.Values) {
			t.Errorf("trial %d: eigenvalues not sorted: %v", trial, e.Values)
		}
		// V diag(w) V^T == A.
		d := NewDense(n, n)
		for i, v := range e.Values {
			d.Set(i, i, v)
		}
		recon := e.Vectors.Mul(d).Mul(e.Vectors.T())
		if !recon.Equal(a, 1e-8*(1+a.MaxAbs())) {
			t.Errorf("trial %d: V diag V^T != A", trial)
		}
		// Orthonormality.
		if !e.Vectors.T().Mul(e.Vectors).Equal(Identity(n), 1e-9) {
			t.Errorf("trial %d: V^T V != I", trial)
		}
	}
}

func TestEigenSymTraceInvariantProperty(t *testing.T) {
	// Sum of eigenvalues equals the trace for symmetric matrices.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		g := randomDense(rng, n, n)
		a := g.Add(g.T()).Scale(0.5)
		e, err := NewEigenSym(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		for _, v := range e.Values {
			sum += v
		}
		if !almostEqual(tr, sum, 1e-8*(1+math.Abs(tr))) {
			t.Errorf("trial %d: trace %v != eigsum %v", trial, tr, sum)
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 5, -5, 1})
	if _, err := NewEigenSym(a); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
	if _, err := NewEigenSym(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("rect err = %v, want ErrShape", err)
	}
}

func TestEigenSymLaplacianNullspace(t *testing.T) {
	// A graph Laplacian always has eigenvalue 0 with the constant
	// eigenvector; with two components, multiplicity is 2. This mirrors
	// exactly how the cluster package consumes this solver.
	// Graph: 0-1, 2-3 (two disjoint edges).
	w := NewDense(4, 4)
	w.Set(0, 1, 1)
	w.Set(1, 0, 1)
	w.Set(2, 3, 1)
	w.Set(3, 2, 1)
	l := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		var d float64
		for j := 0; j < 4; j++ {
			d += w.At(i, j)
		}
		for j := 0; j < 4; j++ {
			if i == j {
				l.Set(i, j, d)
			} else {
				l.Set(i, j, -w.At(i, j))
			}
		}
	}
	e, err := NewEigenSym(l)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]) > 1e-10 || math.Abs(e.Values[1]) > 1e-10 {
		t.Errorf("two-component Laplacian should have two ~0 eigenvalues, got %v", e.Values)
	}
	if e.Values[2] < 1e-6 {
		t.Errorf("third eigenvalue should be positive, got %v", e.Values[2])
	}
}

func TestSpectralRadius(t *testing.T) {
	a := NewDenseData(2, 2, []float64{0.5, 0, 0, -0.9})
	r, err := SpectralRadius(a, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 0.9, 1e-6) {
		t.Errorf("SpectralRadius = %v, want 0.9", r)
	}
	if _, err := SpectralRadius(NewDense(2, 3), 10); !errors.Is(err, ErrShape) {
		t.Errorf("rect err = %v, want ErrShape", err)
	}
	z, err := SpectralRadius(NewDense(3, 3), 10)
	if err != nil || z != 0 {
		t.Errorf("zero matrix radius = %v err %v, want 0", z, err)
	}
}

// spectralRadiusRef is the plain form of SpectralRadius's estimate:
// one restart at a time, one fresh MulVec slice per iteration. It is
// the oracle the multi-restart kernel must match bit for bit.
func spectralRadiusRef(a *Dense, iters int) (float64, error) {
	m, n := a.Dims()
	if m != n {
		return 0, ErrShape
	}
	if n == 0 {
		return 0, nil
	}
	if iters <= 0 {
		iters = 200
	}
	var mx float64
	for i := 0; i < n; i++ {
		for _, v := range a.RawRow(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, ErrNonFinite
			}
			mx = math.Max(mx, math.Abs(v))
		}
	}
	if mx == 0 {
		return 0, nil
	}
	scale := 1.0
	if mx > spectralScaleFloor {
		scale = mx
		a = a.Scale(1 / mx)
	}
	var best float64
	for r := 0; r <= n; r++ {
		x := make([]float64, n)
		if r == n {
			for i := range x {
				x[i] = 1
			}
		} else {
			x[r] = 1
		}
		var lam float64
		for it := 0; it < iters; it++ {
			y := a.MulVec(x)
			ny := Norm2(y)
			if ny == 0 {
				lam = 0
				break
			}
			lam = ny
			for i := range y {
				y[i] /= ny
			}
			x = y
		}
		if lam > best {
			best = lam
		}
	}
	return scale * best, nil
}

// thermalCompanion returns the matrix sysid's Model.SpectralRadius
// iterates on for a random p-sensor model: A itself for first order,
// the 2p x 2p companion [[A+A2, -A2], [I, 0]] for second order. A is
// near-diagonal around 0.95, like an identified thermal network, so
// some draws land just inside the unit circle and some just outside.
func thermalCompanion(rng *rand.Rand, p, order int) *Dense {
	a := NewDense(p, p)
	a2 := NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, 0.1*rng.NormFloat64()/float64(p))
			a2.Set(i, j, 0.2*rng.NormFloat64()/float64(p))
		}
		a.Set(i, i, 0.9+0.15*rng.Float64())
		a2.Set(i, i, 0.5*rng.Float64()-0.1)
	}
	if order == 1 {
		return a
	}
	comp := NewDense(2*p, 2*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			comp.Set(i, j, a.At(i, j)+a2.At(i, j))
			comp.Set(i, j+p, -a2.At(i, j))
		}
		comp.Set(i+p, i, 1)
	}
	return comp
}

// TestSpectralRadiusMatchesReference pins the multi-restart kernel to
// the one-restart-at-a-time oracle: every estimate must be the same
// float64, not merely close, because sysid's stability projection and
// every persisted model downstream of it depend on the exact value.
func TestSpectralRadiusMatchesReference(t *testing.T) {
	check := func(name string, a *Dense, iters int) {
		t.Helper()
		got, err := SpectralRadius(a, iters)
		want, wantErr := spectralRadiusRef(a, iters)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s: SpectralRadius = %v (%x), reference %v (%x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, p := range []int{1, 2, 3, 4, 5, 6, 8, 11, 27} {
		for _, order := range []int{1, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				a := thermalCompanion(rand.New(rand.NewSource(seed*1000+int64(p))), p, order)
				check(fmt.Sprintf("p=%d order=%d seed=%d", p, order, seed), a, 300)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, iters := range []int{-1, 0, 1, 2, 7} {
		check(fmt.Sprintf("iters=%d", iters), thermalCompanion(rng, 5, 2), iters)
	}
	// Edge cases: the huge-entry rescale (radius overflowing to +Inf
	// and a finite huge one), zero and nilpotent matrices whose
	// restarts stop on a zero norm, a companion with A2 = 0 (half its
	// restarts die at once), underflowing entries, NaN/Inf rejection,
	// and the empty and non-square shapes.
	h := 1e308
	comp := NewDense(6, 6)
	for i := 0; i < 3; i++ {
		comp.Set(i, i, 0.97)
		comp.Set(i+3, i, 1)
	}
	for name, a := range map[string]*Dense{
		"huge-overflow": NewDenseData(2, 2, []float64{h, h, h, h}),
		"huge-finite":   NewDenseData(2, 2, []float64{1e200, 0, 0, 2e200}),
		"zero":          NewDense(3, 3),
		"nilpotent":     NewDenseData(3, 3, []float64{0, 1, 0, 0, 0, 1, 0, 0, 0}),
		"a2-zero":       comp,
		"tiny":          NewDenseData(2, 2, []float64{1e-300, 1e-301, 0, 1e-300}),
		"nan":           NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 0.5}),
		"inf":           NewDenseData(2, 2, []float64{math.Inf(-1), 0, 0, 0.5}),
		"empty":         NewDense(0, 0),
		"non-square":    NewDense(2, 3),
	} {
		check(name, a, 200)
	}
}

// TestSpectralRadiusAllocsFlat: the iterations run in buffers set up
// once per call, so the allocation count does not grow with iters.
func TestSpectralRadiusAllocsFlat(t *testing.T) {
	a := thermalCompanion(rand.New(rand.NewSource(5)), 6, 2)
	few := testing.AllocsPerRun(20, func() { _, _ = SpectralRadius(a, 10) })
	many := testing.AllocsPerRun(20, func() { _, _ = SpectralRadius(a, 1000) })
	if many != few || many > 1 {
		t.Fatalf("allocs/call = %v at 10 iterations, %v at 1000; want the same, at most 1", few, many)
	}
}

// BenchmarkSpectralRadius times one estimate on the 54 x 54 companion
// of a 27-sensor second-order model (the paper auditorium's size) at
// the 300 iterations Model.SpectralRadius uses.
func BenchmarkSpectralRadius(b *testing.B) {
	a := thermalCompanion(rand.New(rand.NewSource(27)), 27, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralRadius(a, 300); err != nil {
			b.Fatal(err)
		}
	}
}
