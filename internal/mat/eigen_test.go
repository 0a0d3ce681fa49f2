package mat

import (
	"encoding/binary"
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

// TestEigenSymRejectsNonFinite: the symmetry check cannot see a NaN
// (NaN > tol is false) and an Inf pair passes it, so without the
// up-front check both returned eigenvalues and a nil error.
func TestEigenSymRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, a := range map[string]*Dense{
		"nan-diagonal":     NewDenseData(3, 3, []float64{1, 0, 0, 0, nan, 0, 0, 0, 1}),
		"nan-off-diagonal": NewDenseData(3, 3, []float64{1, nan, 0, nan, 1, 0, 0, 0, 1}),
		"nan-one-side":     NewDenseData(2, 2, []float64{1, nan, 0, 1}),
		"inf-pair":         NewDenseData(2, 2, []float64{1, inf, inf, 1}),
		"neg-inf-diagonal": NewDenseData(2, 2, []float64{-inf, 0, 0, 1}),
	} {
		if e, err := NewEigenSym(a); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: NewEigenSym = %v, err %v; want ErrNonFinite", name, e, err)
		}
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

// TestSpectralRadiusHugeEntries is the regression test for the
// overflow collapse: pre-fix, power iteration on a matrix with
// ~1e308-magnitude entries normalized its iterate against an +Inf norm
// and silently reported spectral radius 0 — letting sysid's stability
// projection wave a divergent model through untouched.
func TestSpectralRadiusHugeEntries(t *testing.T) {
	h := 1e308
	a := NewDenseData(2, 2, []float64{h, h, h, h}) // true radius 2e308 (= +Inf in float64)
	rho, err := SpectralRadius(a, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rho < h {
		t.Fatalf("SpectralRadius = %v, want >= %v (pre-fix collapsed to 0)", rho, h)
	}

	// A merely-huge (non-overflowing radius) case must come back
	// finite and accurate.
	b := NewDenseData(2, 2, []float64{1e200, 0, 0, 2e200})
	rho, err = SpectralRadius(b, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(rho, 0) || math.Abs(rho-2e200)/2e200 > 1e-9 {
		t.Fatalf("SpectralRadius = %v, want ~2e200", rho)
	}
}

// TestSpectralRadiusNonFinite: NaN/Inf entries must be rejected, not
// silently scored as radius 0 (NaN loses every comparison inside power
// iteration).
func TestSpectralRadiusNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		a := NewDenseData(2, 2, []float64{bad, 0, 0, 0.5})
		if _, err := SpectralRadius(a, 100); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("entry %v: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// TestSpectralRadiusUnscaledPathUnchanged pins the ordinary-magnitude
// path to its exact historical estimates (no rescaling perturbation).
func TestSpectralRadiusUnscaledPathUnchanged(t *testing.T) {
	a := NewDenseData(2, 2, []float64{0.9, 0.3, 0.1, 0.5})
	rho, err := SpectralRadius(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Eigenvalues of [[.9,.3],[.1,.5]]: (1.4 ± sqrt(0.16+0.12))/2.
	want := (1.4 + math.Sqrt(0.28)) / 2
	if math.Abs(rho-want) > 1e-9 {
		t.Fatalf("SpectralRadius = %v, want %v", rho, want)
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

// thermalDynamics returns the matrix sysid's Model.SpectralRadius hands
// the kernel for a random p-sensor model: A itself for first order, the
// p x 2p top block row [A+A2, -A2] of the companion for second order.
// A is near-diagonal around 0.95, like an identified thermal network,
// so some draws land just inside the unit circle and some just outside.
func thermalDynamics(rng *rand.Rand, p, order int) *Dense {
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
	top := NewDense(p, 2*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			top.Set(i, j, a.At(i, j)+a2.At(i, j))
			top.Set(i, j+p, -a2.At(i, j))
		}
	}
	return top
}

// companion returns the explicit 2p x 2p matrix [[top], [I 0]] that
// CompanionSpectralRadius leaves implicit.
func companion(top *Dense) *Dense {
	p := top.Rows()
	c := NewDense(2*p, 2*p)
	for i := 0; i < p; i++ {
		copy(c.RawRow(i), top.RawRow(i))
		c.Set(i+p, i, 1)
	}
	return c
}

// errClass returns the sentinel err wraps (ErrNonFinite or ErrShape),
// or err itself.
func errClass(err error) error {
	for _, c := range []error{ErrNonFinite, ErrShape} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// checkSameEstimate fails unless got and want are the same float64 and
// the errors are of the same class.
func checkSameEstimate(t testing.TB, name string, got float64, err error, want float64, wantErr error) {
	t.Helper()
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: estimate %v (%x), reference %v (%x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestSpectralRadiusMatchesReference pins the multi-restart kernel to
// the one-restart-at-a-time oracle: every estimate must be the same
// float64, not merely close, because sysid's stability projection and
// every persisted model downstream of it depend on the exact value.
// Every companion is also estimated from its top block row alone with
// CompanionSpectralRadius, which must match the oracle on the explicit
// matrix just as exactly.
func TestSpectralRadiusMatchesReference(t *testing.T) {
	check := func(name string, a *Dense, iters int) {
		t.Helper()
		got, err := SpectralRadius(a, iters)
		want, wantErr := spectralRadiusRef(a, iters)
		checkSameEstimate(t, name, got, err, want, wantErr)
	}
	checkCompanion := func(name string, top *Dense, iters int) {
		t.Helper()
		got, err := CompanionSpectralRadius(top, iters)
		want, wantErr := spectralRadiusRef(companion(top), iters)
		checkSameEstimate(t, name+" (companion)", got, err, want, wantErr)
	}
	for _, p := range []int{1, 2, 3, 4, 5, 6, 8, 11, 27} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("p=%d seed=%d", p, seed)
			a := thermalDynamics(rand.New(rand.NewSource(seed*1000+int64(p))), p, 1)
			check(name+" order=1", a, 300)
			top := thermalDynamics(rand.New(rand.NewSource(seed*1000+int64(p))), p, 2)
			check(name+" order=2", companion(top), 300)
			checkCompanion(name+" order=2", top, 300)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, iters := range []int{-1, 0, 1, 2, 7} {
		top := thermalDynamics(rng, 5, 2)
		name := fmt.Sprintf("iters=%d", iters)
		check(name, companion(top), iters)
		checkCompanion(name, top, iters)
	}
	// Edge cases: the huge-entry rescale (radius overflowing to +Inf
	// and a finite huge one), zero and nilpotent matrices whose
	// restarts stop on a zero norm, a companion with A2 = 0 (half its
	// restarts die at once), underflowing entries, NaN/Inf rejection,
	// and the empty and non-square shapes.
	h := 1e308
	a2Zero := NewDense(3, 6)
	for i := 0; i < 3; i++ {
		a2Zero.Set(i, i, 0.97)
	}
	for name, a := range map[string]*Dense{
		"huge-overflow": NewDenseData(2, 2, []float64{h, h, h, h}),
		"huge-finite":   NewDenseData(2, 2, []float64{1e200, 0, 0, 2e200}),
		"zero":          NewDense(3, 3),
		"nilpotent":     NewDenseData(3, 3, []float64{0, 1, 0, 0, 0, 1, 0, 0, 0}),
		"a2-zero":       companion(a2Zero),
		"tiny":          NewDenseData(2, 2, []float64{1e-300, 1e-301, 0, 1e-300}),
		"nan":           NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 0.5}),
		"inf":           NewDenseData(2, 2, []float64{math.Inf(-1), 0, 0, 0.5}),
		"empty":         NewDense(0, 0),
		"non-square":    NewDense(2, 3),
	} {
		check(name, a, 200)
	}
	// Companion edge cases, each a p x 2p top: entries all below 1, so
	// the implicit identity sets the max-abs entry; the huge rescale,
	// where the identity entries become 1/mx (radius finite and
	// overflowing); a zero top, whose companion is nilpotent; A2 = 0;
	// entries near 1e-300, whose products underflow; negative entries,
	// which produce negative zeros in the identity rows' copies; and
	// NaN/Inf rejection.
	for name, top := range map[string]*Dense{
		"sub-unit":      NewDenseData(2, 4, []float64{0.5, 0.1, -0.2, 0.05, 0.1, 0.4, 0.03, -0.1}),
		"huge-finite":   NewDenseData(2, 4, []float64{1e200, 0, -3e199, 0, 0, 2e200, 0, 5e199}),
		"huge-overflow": NewDenseData(2, 4, []float64{h, h, -h, h, h, h, h, -h}),
		"zero":          NewDense(3, 6),
		"a2-zero":       a2Zero,
		"tiny":          NewDenseData(2, 4, []float64{1e-300, 1e-301, -1e-300, 0, 0, 1e-300, 2e-301, -1e-301}),
		"negative":      NewDenseData(2, 4, []float64{-0.9, -0.05, 0.3, -0.01, -0.02, -0.8, -0.01, 0.2}),
		"nan":           NewDenseData(1, 2, []float64{0.5, math.NaN()}),
		"inf":           NewDenseData(1, 2, []float64{math.Inf(1), 0.5}),
		"neg-inf":       NewDenseData(2, 4, []float64{0.9, 0, 0, 0, 0, 0.9, 0, math.Inf(-1)}),
		"empty":         NewDense(0, 0),
	} {
		checkCompanion(name, top, 200)
	}
	for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {0, 1}} {
		if _, err := CompanionSpectralRadius(NewDense(shape[0], shape[1]), 200); !errors.Is(err, ErrShape) {
			t.Errorf("%dx%d top: err = %v, want ErrShape", shape[0], shape[1], err)
		}
	}
}

// FuzzCompanionSpectralRadius checks CompanionSpectralRadius against
// the scalar oracle spectralRadiusRef on the explicit companion, for
// arbitrary float64 bit patterns; where the host runs a faster kernel,
// it checks the portable kernel against the oracle too. The first byte
// picks p in [1, 12], so the 2p+1 restarts fill one or two 16-lane
// passes; each following 8 bytes, little-endian, are one entry of the
// p x 2p top block, row by row, with missing entries zero.
func FuzzCompanionSpectralRadius(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := 1 + int(data[0])%12
		top := NewDense(p, 2*p)
		raw := data[1:]
		for i := 0; i < p; i++ {
			row := top.RawRow(i)
			for j := range row {
				var w [8]byte
				raw = raw[copy(w[:], raw):]
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
		}
		name := fmt.Sprintf("p=%d top=\n%v", p, top)
		want, wantErr := spectralRadiusRef(companion(top), 300)
		got, err := CompanionSpectralRadius(top, 300)
		checkSameEstimate(t, name, got, err, want, wantErr)
		if lanes.width != portableLanes.width {
			got, err := spectralRadius(top, 300, portableLanes)
			checkSameEstimate(t, name+" (portable kernel)", got, err, want, wantErr)
		}
	})
}

// TestSpectralRadiusAllocsFlat: the iterations run in buffers set up
// once per call, so the allocation count does not grow with iters.
func TestSpectralRadiusAllocsFlat(t *testing.T) {
	top := thermalDynamics(rand.New(rand.NewSource(5)), 6, 2)
	a := companion(top)
	for name, f := range map[string]func(int) (float64, error){
		"SpectralRadius":          func(iters int) (float64, error) { return SpectralRadius(a, iters) },
		"CompanionSpectralRadius": func(iters int) (float64, error) { return CompanionSpectralRadius(top, iters) },
	} {
		few := testing.AllocsPerRun(20, func() { _, _ = f(10) })
		many := testing.AllocsPerRun(20, func() { _, _ = f(1000) })
		if many != few || many > 1 {
			t.Fatalf("%s: allocs/call = %v at 10 iterations, %v at 1000; want the same, at most 1", name, few, many)
		}
	}
}

// BenchmarkSpectralRadius times one estimate for a 27-sensor
// second-order model (the paper auditorium's size) at the 300
// iterations Model.SpectralRadius uses: on the explicit 54 x 54
// companion, and with CompanionSpectralRadius on its 27 x 54 top block
// row, as sysid computes it, with the kernel this host runs and with
// the portable kernel.
func BenchmarkSpectralRadius(b *testing.B) {
	top := thermalDynamics(rand.New(rand.NewSource(27)), 27, 2)
	a := companion(top)
	for _, bc := range []struct {
		name string
		f    func() (float64, error)
	}{
		{"dense", func() (float64, error) { return SpectralRadius(a, 300) }},
		{"companion", func() (float64, error) { return CompanionSpectralRadius(top, 300) }},
		{"portable", func() (float64, error) { return spectralRadius(top, 300, portableLanes) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
