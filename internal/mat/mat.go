// Package mat implements the dense linear algebra needed by the
// auditherm toolkit: matrix/vector arithmetic, Householder QR least
// squares, LU and Cholesky solvers, and a Jacobi symmetric
// eigendecomposition.
//
// The package is deliberately small and dependency-free. It targets the
// modest problem sizes that appear in building thermal identification
// (tens of sensors, thousands of samples): algorithms are chosen for
// numerical robustness and clarity rather than for asymptotic records.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned (wrapped) when a factorization meets a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty (0x0) matrix; use NewDense or NewDenseData
// to create one with content.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zero-initialized r-by-c matrix.
// It panics if r or c is negative or r*c overflows int.
func NewDense(r, c int) *Dense {
	checkDims(r, c)
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by data (row-major).
// The slice is used directly, not copied. It panics if r or c is
// negative, r*c overflows int, or len(data) != r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	checkDims(r, c)
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// checkDims panics unless r-by-c is a shape whose element count r*c
// is a non-negative int: a wrapped product would let a huge shape pass
// a length check against a short slice.
func checkDims(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if c > 0 && r > math.MaxInt/c {
		panic(fmt.Sprintf("mat: dimension %dx%d overflows int", r, c))
	}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RawRow returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Row returns a copy of the i-th row.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.RawRow(i))
	return out
}

// Col returns a copy of the j-th column.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: row length %d does not match %d columns", len(v), m.cols))
	}
	copy(m.RawRow(i), v)
}

// SetCol copies v into column j. It panics if len(v) != Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: column length %d does not match %d rows", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	data := make([]float64, len(m.data))
	copy(data, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: data}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.RawRow(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameShape(b)
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameShape(b)
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

func (m *Dense) sameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m*b as a new matrix.
// It panics if the inner dimensions disagree.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: cannot multiply %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.RawRow(i)
		orow := out.RawRow(i)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.RawRow(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x as a new slice.
// It panics if len(x) != Cols().
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = Dot(m.RawRow(i), x)
	}
	return out
}

// Slice returns a copy of the submatrix rows [r0,r1) and columns [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: invalid slice [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.RawRow(i-r0), m.RawRow(i)[c0:c1])
	}
	return out
}

// SubMatrix returns a copy of the submatrix selecting the given row and
// column indices, in order. Indices may repeat.
func (m *Dense) SubMatrix(rows, cols []int) *Dense {
	out := NewDense(len(rows), len(cols))
	for i, ri := range rows {
		src := m.RawRow(ri)
		dst := out.RawRow(i)
		for j, cj := range cols {
			if cj < 0 || cj >= m.cols {
				panic(fmt.Sprintf("mat: column index %d out of range for %dx%d", cj, m.rows, m.cols))
			}
			dst[j] = src[cj]
		}
	}
	return out
}

// Equal reports whether m and b have the same shape and elements within
// absolute tolerance tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; rows are newline separated.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j, v := range m.RawRow(i) {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4g", v)
		}
	}
	return b.String()
}
