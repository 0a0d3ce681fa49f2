package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m-by-n matrix with
// m >= n: A = Q*R with Q orthogonal (m-by-m, stored implicitly as
// Householder reflectors) and R upper triangular (n-by-n).
type QR struct {
	qr   *Dense    // packed reflectors below the diagonal, R on and above
	rdia []float64 // diagonal of R
}

// NewQR computes the QR factorization of a. The input is not modified.
// It returns an error if a has fewer rows than columns.
func NewQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: QR of %dx%d matrix: %w", m, n, ErrShape)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -nrm
	}
	qrFactorizationsTotal.Inc()
	return &QR{qr: qr, rdia: rdia}, nil
}

// ConditionEstimate returns a cheap estimate of the 2-norm condition
// number of the factored matrix: the ratio of the largest to smallest
// absolute diagonal entry of R. It is exact for diagonal matrices and a
// lower bound in general; +Inf when R has a zero diagonal entry.
func (f *QR) ConditionEstimate() float64 {
	var mn, mx float64
	mn = math.Inf(1)
	for _, d := range f.rdia {
		a := math.Abs(d)
		if a < mn {
			mn = a
		}
		if a > mx {
			mx = a
		}
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// IsFullRank reports whether R has no zero (to working precision)
// diagonal entries, i.e. the factored matrix has full column rank.
func (f *QR) IsFullRank() bool {
	m, _ := f.qr.Dims()
	// Tolerance scaled to problem size and magnitude, in the spirit of
	// rank-revealing heuristics.
	tol := float64(m) * eps * f.maxAbsRDiag()
	if tol == 0 {
		return false
	}
	for _, d := range f.rdia {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

func (f *QR) maxAbsRDiag() float64 {
	var mx float64
	for _, d := range f.rdia {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	return mx
}

const eps = 2.220446049250313e-16

// Solve returns the least-squares solution x minimizing ||A*x - b||_2
// where A is the factored matrix. It returns an error if A is rank
// deficient or if len(b) != A's row count.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("mat: QR solve with rhs length %d for %dx%d system: %w", len(b), m, n, ErrShape)
	}
	if !f.IsFullRank() {
		return nil, fmt.Errorf("mat: QR solve: %w", ErrSingular)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Q^T to b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R*x = y[:n].
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		x[k] = s / f.rdia[k]
	}
	return x, nil
}

// SolveMatrix solves the least-squares problem for each column of B,
// returning the n-by-c solution matrix. On failure it reports the
// lowest failing column.
func (f *QR) SolveMatrix(b *Dense) (*Dense, error) {
	m, n := f.qr.Dims()
	br, bc := b.Dims()
	if br != m {
		return nil, fmt.Errorf("mat: QR solve with %dx%d rhs for %d-row system: %w", br, bc, m, ErrShape)
	}
	out := NewDense(n, bc)
	for j := 0; j < bc; j++ {
		x, err := f.Solve(b.Col(j))
		if err != nil {
			return nil, fmt.Errorf("mat: solving column %d: %w", j, err)
		}
		out.SetCol(j, x)
	}
	return out, nil
}

// R returns the upper-triangular factor as a new n-by-n matrix.
func (f *QR) R() *Dense {
	_, n := f.qr.Dims()
	r := NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, f.rdia[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// LeastSquares returns x minimizing ||A*x - b||_2 using Householder QR.
// A must have at least as many rows as columns and full column rank.
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
