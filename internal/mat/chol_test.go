package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cholEqual reports whether two factors agree entrywise within tol on
// their active order.
func cholEqual(a, b *Cholesky, tol float64) bool {
	if a.Order() != b.Order() {
		return false
	}
	return a.L().Equal(b.L(), tol)
}

func TestCholeskyAppendRowMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		a := spdMatrix(rng, n)
		// Factor the leading (n-1)x(n-1) block, then append the last
		// row/column and compare against a from-scratch factorization.
		head := a.Slice(0, n-1, 0, n-1)
		c, err := NewCholesky(head)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n-1)
		for i := range b {
			b[i] = a.At(n-1, i)
		}
		if err := c.AppendRow(b, a.At(n-1, n-1)); err != nil {
			t.Fatalf("trial %d append: %v", trial, err)
		}
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d full: %v", trial, err)
		}
		if !cholEqual(c, full, 1e-9) {
			t.Errorf("trial %d: appended factor differs from refactorization", trial)
		}
		// The mirror must track the factor: solves agree too.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		rhs := a.MulVec(x)
		got, err := c.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				t.Errorf("trial %d: solve after append x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyGrowFromEmpty(t *testing.T) {
	// Build a factor one row at a time from order 0 (with a tiny initial
	// capacity so the doubling path is exercised) and compare to the
	// direct factorization.
	rng := rand.New(rand.NewSource(32))
	const n = 9
	a := spdMatrix(rng, n)
	c := NewCholeskyGrow(1)
	if c.Order() != 0 {
		t.Fatalf("fresh grow factor order = %d", c.Order())
	}
	for k := 0; k < n; k++ {
		b := make([]float64, k)
		for i := range b {
			b[i] = a.At(k, i)
		}
		if err := c.AppendRow(b, a.At(k, k)); err != nil {
			t.Fatalf("append row %d: %v", k, err)
		}
	}
	full, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !cholEqual(c, full, 1e-9) {
		t.Error("incrementally grown factor differs from NewCholesky")
	}
	if got, want := c.LogDet(), full.LogDet(); !almostEqual(got, want, 1e-9) {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskyAppendRowRejectsBadInput(t *testing.T) {
	a := NewDenseData(2, 2, []float64{4, 1, 1, 3})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRow([]float64{1}, 2); !errors.Is(err, ErrShape) {
		t.Errorf("short row err = %v, want ErrShape", err)
	}
	if err := c.AppendRow([]float64{1, math.NaN()}, 2); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN row err = %v, want ErrNonFinite", err)
	}
	if err := c.AppendRow([]float64{1, 1}, math.Inf(1)); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf pivot err = %v, want ErrNonFinite", err)
	}
	// Appending a row that makes the matrix indefinite must fail and
	// leave the factor usable at its old order.
	if err := c.AppendRow([]float64{10, 10}, 1); !errors.Is(err, ErrSingular) {
		t.Errorf("indefinite append err = %v, want ErrSingular", err)
	}
	if c.Order() != 2 {
		t.Fatalf("order after failed append = %d, want 2", c.Order())
	}
	want, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !cholEqual(c, want, 1e-12) {
		t.Error("failed append corrupted the factor")
	}
}

func TestCholeskySolveToInPlaceAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := spdMatrix(rng, 7)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 7)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := a.MulVec(want)
	// Aliased (in-place) solve.
	buf := append([]float64(nil), rhs...)
	if err := c.SolveTo(buf, buf); err != nil {
		t.Fatal(err)
	}
	// Must match the allocating Solve bit-for-bit.
	ref, err := c.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(buf[i]) != math.Float64bits(ref[i]) {
			t.Errorf("in-place solve x[%d] = %v differs from Solve %v", i, buf[i], ref[i])
		}
		if !almostEqual(buf[i], want[i], 1e-7*(1+math.Abs(want[i]))) {
			t.Errorf("x[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
	if err := c.SolveTo(make([]float64, 3), rhs); !errors.Is(err, ErrShape) {
		t.Errorf("short dst err = %v, want ErrShape", err)
	}
	if _, err := c.Solve(make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs err = %v, want ErrShape", err)
	}
}

func TestCholeskyForwardSolveQuadraticForm(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(9)
		a := spdMatrix(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		if err := c.ForwardSolveTo(y, b); err != nil {
			t.Fatal(err)
		}
		// ||L^-1 b||^2 == b' A^-1 b.
		x, err := c.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Dot(y, y), Dot(b, x); !almostEqual(got, want, 1e-7*(1+math.Abs(want))) {
			t.Errorf("trial %d: quadratic form %v, want %v", trial, got, want)
		}
	}
}

func TestCholeskyInverseDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(9)
		a := spdMatrix(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		diag := make([]float64, n)
		if err := c.InverseDiag(diag); err != nil {
			t.Fatal(err)
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !almostEqual(diag[i], inv.At(i, i), 1e-7*(1+math.Abs(inv.At(i, i)))) {
				t.Errorf("trial %d: (A^-1)[%d,%d] = %v, want %v", trial, i, i, diag[i], inv.At(i, i))
			}
		}
	}
	c, err := NewCholesky(NewDenseData(1, 1, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InverseDiag(make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("bad dst err = %v, want ErrShape", err)
	}
}

func TestNewCholeskyRejectsNaN(t *testing.T) {
	a := NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 1})
	if _, err := NewCholesky(a); err == nil {
		t.Error("NaN matrix accepted")
	}
}

// BenchmarkCholeskySolve guards the row-major back-substitution: both
// triangular sweeps must stream through contiguous rows (no At() calls,
// no column strides) for the factored solve that GreedyMI leans on.
func BenchmarkCholeskySolve(b *testing.B) {
	for _, n := range []int{27, 100, 300} {
		rng := rand.New(rand.NewSource(37))
		a := spdMatrix(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.SolveTo(dst, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskyAppendRowVsRefactor(b *testing.B) {
	const n = 200
	rng := rand.New(rand.NewSource(38))
	a := spdMatrix(rng, n)
	head := a.Slice(0, n-1, 0, n-1)
	row := make([]float64, n-1)
	for i := range row {
		row[i] = a.At(n-1, i)
	}
	b.Run("AppendRow", func(b *testing.B) {
		base, err := NewCholesky(head)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := *base
			c.l, c.lt = base.l.Clone(), base.lt.Clone()
			b.StartTimer()
			if err := c.AppendRow(row, a.At(n-1, n-1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Refactor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewCholesky(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
