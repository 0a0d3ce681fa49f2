package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix: A = L*L^T.
//
// Beyond the classic factor-once-solve-many usage, the factor can
// grow: AppendRow extends an order-k factor to order k+1 in O(k^2)
// instead of refactoring in O(k^3). Incremental greedy sensor
// placement (selection.GreedyMI) grows its selected-set factor this
// way, one row per selected sensor.
//
// Internally the factor is stored twice — row-major L and row-major
// L^T — so both the forward and the back substitution stream through
// contiguous memory. The transpose mirror is maintained by every
// mutating operation and never changes the arithmetic: Solve performs
// exactly the same floating-point operations in the same order as a
// column-walking back solve would.
//
// A Cholesky may be used from multiple goroutines only for concurrent
// reads (Solve, SolveTo, InverseDiag, L, LogDet); the mutating
// AppendRow requires exclusive access.
type Cholesky struct {
	n  int    // active order; the top-left n×n of l is the factor
	l  *Dense // lower-triangular factor, capacity cap×cap
	lt *Dense // transpose of l (upper-triangular), kept in sync
}

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns an error when a is
// not positive definite to working precision.
func NewCholesky(a *Dense) (*Cholesky, error) {
	m, n := a.Dims()
	if m != n {
		return nil, fmt.Errorf("mat: Cholesky of %dx%d matrix: %w", m, n, ErrShape)
	}
	c := NewCholeskyGrow(n)
	l := c.l
	for j := 0; j < n; j++ {
		var d float64
		lj := l.RawRow(j)
		for k := 0; k < j; k++ {
			lk := l.RawRow(k)
			var s float64
			for i := 0; i < k; i++ {
				s += lk[i] * lj[i]
			}
			s = (a.At(j, k) - s) / lk[k]
			lj[k] = s
			d += s * s
		}
		d = a.At(j, j) - d
		if !(d > 0) {
			return nil, fmt.Errorf("mat: Cholesky pivot %d is %v: matrix not positive definite: %w", j, d, ErrSingular)
		}
		lj[j] = math.Sqrt(d)
	}
	c.n = n
	c.syncTranspose()
	return c, nil
}

// NewCholeskyGrow returns an empty (order-0) factor with storage
// pre-allocated for AppendRow growth up to the given capacity. Growing
// beyond the capacity reallocates (amortized doubling), so the capacity
// is a hint, not a limit.
func NewCholeskyGrow(capacity int) *Cholesky {
	if capacity < 0 {
		capacity = 0
	}
	return &Cholesky{n: 0, l: NewDense(capacity, capacity), lt: NewDense(capacity, capacity)}
}

// syncTranspose rebuilds the full L^T mirror from l (used after bulk
// factorization; incremental operations patch both copies directly).
func (c *Cholesky) syncTranspose() {
	for i := 0; i < c.n; i++ {
		row := c.l.RawRow(i)
		for j := 0; j <= i; j++ {
			c.lt.RawRow(j)[i] = row[j]
		}
	}
}

// Order returns the current order of the factored matrix.
func (c *Cholesky) Order() int { return c.n }

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense {
	out := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(out.RawRow(i)[:i+1], c.l.RawRow(i)[:i+1])
	}
	return out
}

// grow ensures storage capacity for an order-(n+1) factor.
func (c *Cholesky) grow() {
	if c.n < c.l.Rows() {
		return
	}
	newCap := 2 * c.l.Rows()
	if newCap < c.n+1 {
		newCap = c.n + 1
	}
	nl := NewDense(newCap, newCap)
	nlt := NewDense(newCap, newCap)
	for i := 0; i < c.n; i++ {
		copy(nl.RawRow(i)[:i+1], c.l.RawRow(i)[:i+1])
		copy(nlt.RawRow(i)[i:c.n], c.lt.RawRow(i)[i:c.n])
	}
	c.l, c.lt = nl, nlt
}

// AppendRow grows the factored matrix A (order k) to
//
//	[ A  b  ]
//	[ b' cc ]
//
// in O(k^2): one forward substitution L*w = b plus a scalar pivot.
// len(b) must equal Order(). It returns an error (wrapping ErrSingular)
// when the extended matrix is not positive definite to working
// precision, or (wrapping ErrNonFinite) when b or cc contain NaN/Inf;
// in both cases the factor is left unchanged.
func (c *Cholesky) AppendRow(b []float64, cc float64) error {
	if len(b) != c.n {
		return fmt.Errorf("mat: Cholesky append row of length %d to order-%d factor: %w", len(b), c.n, ErrShape)
	}
	if !isFinite(cc) {
		return fmt.Errorf("mat: Cholesky append: %w", ErrNonFinite)
	}
	for _, v := range b {
		if !isFinite(v) {
			return fmt.Errorf("mat: Cholesky append: %w", ErrNonFinite)
		}
	}
	c.grow()
	// Forward solve L*w = b directly into the new row of l.
	w := c.l.RawRow(c.n)[:c.n]
	var d float64
	for i := 0; i < c.n; i++ {
		row := c.l.RawRow(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * w[j]
		}
		s /= row[i]
		w[i] = s
		d += s * s
	}
	d = cc - d
	if !(d > 0) {
		// Roll back: zero the scratch row so the factor is unchanged.
		for i := range w {
			w[i] = 0
		}
		return fmt.Errorf("mat: Cholesky append pivot is %v: matrix not positive definite: %w", d, ErrSingular)
	}
	diag := math.Sqrt(d)
	c.l.RawRow(c.n)[c.n] = diag
	// Mirror the new column into L^T.
	for j := 0; j < c.n; j++ {
		c.lt.RawRow(j)[c.n] = w[j]
	}
	c.lt.RawRow(c.n)[c.n] = diag
	c.n++
	return nil
}

// Solve returns x with A*x = b for the factored matrix A.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A*x = b into dst without allocating. dst and b must
// both have length Order(); dst may alias b (the solve is in-place in
// that case). Both triangular sweeps stream through contiguous rows
// (of L, then of L^T), keeping the inner loops bounds-check- and
// stride-free.
func (c *Cholesky) SolveTo(dst, b []float64) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("mat: Cholesky solve with rhs length %d for order-%d system: %w", len(b), n, ErrShape)
	}
	if len(dst) != n {
		return fmt.Errorf("mat: Cholesky solve into dst length %d for order-%d system: %w", len(dst), n, ErrShape)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Forward solve L*y = b over contiguous rows of L.
	for i := 0; i < n; i++ {
		row := c.l.RawRow(i)[:i+1]
		s := dst[i]
		for j, v := range row[:i] {
			s -= v * dst[j]
		}
		dst[i] = s / row[i]
	}
	// Back solve L^T*x = y over contiguous rows of L^T (row i of L^T is
	// column i of L, so the summation order matches the classic
	// column-walking back substitution exactly).
	for i := n - 1; i >= 0; i-- {
		row := c.lt.RawRow(i)[:n]
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	return nil
}

// ForwardSolveTo solves the lower-triangular half-system L*y = b into
// dst without allocating (dst may alias b). Since A = L*L^T, the
// squared norm of y is the quadratic form b'*A^-1*b — the kernel behind
// Gaussian conditional variances: Var(y|S) = A_yy - ||L^-1 a_Sy||^2.
func (c *Cholesky) ForwardSolveTo(dst, b []float64) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("mat: Cholesky forward solve with rhs length %d for order-%d system: %w", len(b), n, ErrShape)
	}
	if len(dst) != n {
		return fmt.Errorf("mat: Cholesky forward solve into dst length %d for order-%d system: %w", len(dst), n, ErrShape)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	for i := 0; i < n; i++ {
		row := c.l.RawRow(i)[:i+1]
		s := dst[i]
		for j, v := range row[:i] {
			s -= v * dst[j]
		}
		dst[i] = s / row[i]
	}
	return nil
}

// InverseDiag writes the diagonal of A^-1 (the precision diagonal)
// into dst, which must have length Order(). With A = L*L^T,
// (A^-1)_yy = ||L^-1 e_y||^2, so each entry is one truncated forward
// substitution; the total cost is ~n^3/3 flops — the same order as one
// factorization and a factor n cheaper than n full solves from scratch.
//
// The precision diagonal is the workhorse of incremental mutual
// information placement: Var(y | U \ y) = 1 / (A_UU^-1)_yy for every
// y in U simultaneously.
func (c *Cholesky) InverseDiag(dst []float64) error {
	n := c.n
	if len(dst) != n {
		return fmt.Errorf("mat: Cholesky inverse diagonal into dst length %d for order-%d system: %w", len(dst), n, ErrShape)
	}
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for y := 0; y < n; y++ {
		// Forward solve L*v = e_y; v[0..y-1] = 0 so start at y.
		v[y] = 1 / c.l.RawRow(y)[y]
		sum := v[y] * v[y]
		for i := y + 1; i < n; i++ {
			row := c.l.RawRow(i)[:i+1]
			var s float64
			for j := y; j < i; j++ {
				s -= row[j] * v[j]
			}
			vi := s / row[i]
			v[i] = vi
			sum += vi * vi
		}
		dst[y] = sum
	}
	return nil
}

// LogDet returns the natural log of the determinant of the factored
// matrix, computed stably from the factor diagonal.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.RawRow(i)[i])
	}
	return 2 * s
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
