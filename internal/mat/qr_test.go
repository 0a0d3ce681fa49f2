package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares must reproduce the exact
	// solution.
	a := NewDenseData(3, 3, []float64{
		2, 1, 0,
		1, 3, 1,
		0, 1, 4,
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit a line to noiseless points: recover slope and intercept.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewDense(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2.5*x - 1.25
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !almostEqual(got[0], 2.5, 1e-10) || !almostEqual(got[1], -1.25, 1e-10) {
		t.Errorf("fit = %v, want [2.5 -1.25]", got)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The optimality condition of LS: residual is orthogonal to the
	// column space, A^T(Ax-b) = 0.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := 5 + rng.Intn(20)
		n := 1 + rng.Intn(5)
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := SubVec(a.MulVec(x), b)
		g := a.T().MulVec(r)
		for i, v := range g {
			if math.Abs(v) > 1e-8 {
				t.Errorf("trial %d: gradient[%d] = %v, want ~0", trial, i, v)
			}
		}
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 8, 5)
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	r := f.R()
	// Verify R is upper triangular.
	for i := 0; i < 5; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Errorf("R[%d,%d] = %v, want 0", i, j, r.At(i, j))
			}
		}
	}
	// ||A^T A - R^T R|| should vanish (Q orthogonality).
	ata := a.T().Mul(a)
	rtr := r.T().Mul(r)
	if !ata.Equal(rtr, 1e-9) {
		t.Errorf("A^T A != R^T R:\n%v\nvs\n%v", ata, rtr)
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	_, err := NewQR(NewDense(2, 3))
	if !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank deficient.
	a := NewDenseData(4, 2, []float64{
		1, 1,
		2, 2,
		3, 3,
		4, 4,
	})
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	if f.IsFullRank() {
		t.Error("rank-deficient matrix reported full rank")
	}
	if _, err := f.Solve([]float64{1, 2, 3, 4}); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve err = %v, want ErrSingular", err)
	}
}

func TestQRSolveMatrix(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, 0, 0, 1, 1, 1})
	xWant := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := a.Mul(xWant)
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	x, err := f.SolveMatrix(b)
	if err != nil {
		t.Fatalf("SolveMatrix: %v", err)
	}
	if !x.Equal(xWant, 1e-10) {
		t.Errorf("SolveMatrix = %v, want %v", x, xWant)
	}
}

func TestQRSolveBadRHS(t *testing.T) {
	f, err := NewQR(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}
