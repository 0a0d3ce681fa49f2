package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a real symmetric matrix:
// A = V * diag(Values) * V^T with orthonormal V. Eigenvalues are sorted
// in ascending order and Vectors column j is the eigenvector for
// Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence for
// the matrix sizes used here (tens of rows) is typically < 10 sweeps.
const maxJacobiSweeps = 100

// NewEigenSym computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. Only symmetric input is supported; the
// matrix is symmetrized as (A+A^T)/2 to absorb round-off asymmetry, but
// an error is returned when the asymmetry is structural. Matrices with
// NaN or Inf entries are rejected with ErrNonFinite: the symmetry test
// cannot see a NaN, and the sweeps would return NaN or meaningless
// eigenvalues without an error.
func NewEigenSym(a *Dense) (*Eigen, error) {
	m, n := a.Dims()
	if m != n {
		return nil, fmt.Errorf("mat: eigendecomposition of %dx%d matrix: %w", m, n, ErrShape)
	}
	for _, v := range a.data {
		if !isFinite(v) {
			return nil, fmt.Errorf("mat: eigendecomposition: %w", ErrNonFinite)
		}
	}
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("mat: eigendecomposition of non-symmetric matrix: %w", ErrShape)
	}
	// Work on a symmetrized copy.
	w := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	v := Identity(n)
	eigensolvesTotal.Inc()
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
			break
		}
		jacobiSweepsTotal.Inc()
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-18 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Compute the Jacobi rotation.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Update rows/columns p and q of w.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort ascending, permuting eigenvectors to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	sorted := make([]float64, n)
	vec := NewDense(n, n)
	for j, id := range idx {
		sorted[j] = vals[id]
		vec.SetCol(j, v.Col(id))
	}
	return &Eigen{Values: sorted, Vectors: vec}, nil
}

func offDiagNorm(a *Dense) float64 {
	n := a.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// spectralScaleFloor is the magnitude past which SpectralRadius
// rescales its input: beyond ~1e150 the matvec norms overflow to +Inf,
// the iterate normalizes to the zero vector, and the estimate silently
// collapses to 0 — reporting a wildly unstable matrix as stable.
const spectralScaleFloor = 1e150

// ErrNonFinite is returned (wrapped) when an operation meets NaN or
// Inf entries it cannot give a meaningful answer for.
var ErrNonFinite = errors.New("mat: matrix has non-finite entries")

// SpectralRadius returns the largest absolute eigenvalue of a general
// square matrix, estimated by power iteration with deterministic
// restarts. It is used to check identified dynamics matrices for
// stability. For a zero matrix it returns 0.
//
// Matrices with NaN or Inf entries are rejected with ErrNonFinite
// (power iteration would silently report 0 for them: NaN loses every
// comparison), and huge-magnitude matrices are rescaled before
// iterating so intermediate norms cannot overflow — both failure modes
// previously let unstable identified models masquerade as stable.
func SpectralRadius(a *Dense, iters int) (float64, error) {
	m, n := a.Dims()
	if m != n {
		return 0, fmt.Errorf("mat: spectral radius of %dx%d matrix: %w", m, n, ErrShape)
	}
	return spectralRadius(a, iters)
}

// CompanionSpectralRadius returns SpectralRadius of the 2p x 2p block
// companion matrix [[top], [I 0]] for a p x 2p top, without storing
// or multiplying the identity rows. The estimate is the same float64
// SpectralRadius returns on the explicit companion.
func CompanionSpectralRadius(top *Dense, iters int) (float64, error) {
	p, n := top.Dims()
	if n != 2*p {
		return 0, fmt.Errorf("mat: companion spectral radius of %dx%d top block: %w", p, n, ErrShape)
	}
	return spectralRadius(top, iters)
}

// spectralRadius estimates the spectral radius of the n x n matrix
// whose first m rows are the m x n matrix top and whose remaining n-m
// rows are [I 0]: row m+i holds a 1 in column i and zeros elsewhere.
// Those implicit rows count toward the max-abs entry and the rescale
// like stored ones. Their products are exact copies, so skipping their
// zero terms changes at most the sign of a zero, and every later step
// depends only on magnitudes.
func spectralRadius(top *Dense, iters int) (float64, error) {
	m, n := top.Dims()
	if n == 0 {
		return 0, nil
	}
	if iters <= 0 {
		iters = 200
	}
	var mx float64
	if m < n {
		mx = 1
	}
	for i := 0; i < m; i++ {
		for _, v := range top.RawRow(i) {
			if !isFinite(v) {
				return 0, fmt.Errorf("mat: spectral radius: %w", ErrNonFinite)
			}
			if av := math.Abs(v); av > mx {
				mx = av
			}
		}
	}
	if mx == 0 {
		return 0, nil
	}
	spectralRadiusEstimatesTotal.Inc()
	scale, unit := 1.0, 1.0
	if mx > spectralScaleFloor {
		// Iterate on a/mx (entries <= 1, norms <= n: no overflow) and
		// scale the estimate back. Only huge matrices take this path,
		// so ordinary estimates keep their exact historical values.
		// The implicit identity entries scale with the stored ones.
		scale = mx
		top = top.Scale(1 / mx)
		unit = 1 / mx
	}
	// Deterministic restart vectors: unit basis directions plus the
	// all-ones vector to escape unlucky invariant subspaces. They
	// advance spectralLanes at a time, so each pass over the rows feeds
	// every lane's product; lanes past the last restart stay zero and
	// never count.
	buf := make([]float64, 2*spectralLanes*n)
	var x, y [spectralLanes][]float64
	for l := range x {
		x[l] = buf[2*l*n : (2*l+1)*n]
		y[l] = buf[(2*l+1)*n : (2*l+2)*n]
	}
	var best float64
	for r0 := 0; r0 <= n; r0 += spectralLanes {
		var lam [spectralLanes]float64
		var live [spectralLanes]bool
		for l := range x {
			r := r0 + l
			clear(x[l])
			switch {
			case r < n:
				x[l][r] = 1
			case r == n:
				for i := range x[l] {
					x[l][i] = 1
				}
			}
			live[l] = r <= n
		}
		for it := 0; it < iters && live != [spectralLanes]bool{}; it++ {
			mulVecLanes(top, unit, &x, &y)
			for l := range x {
				if !live[l] {
					continue
				}
				ny := Norm2(y[l])
				if ny == 0 {
					lam[l] = 0
					live[l] = false
					continue
				}
				lam[l] = ny
				for i := range y[l] {
					y[l][i] /= ny
				}
				x[l], y[l] = y[l], x[l]
			}
		}
		for _, v := range lam {
			if v > best {
				best = v
			}
		}
	}
	return scale * best, nil
}

// spectralLanes is how many power-iteration restarts SpectralRadius
// advances per pass over the matrix; mulVecLanes is written out for
// exactly this many.
const spectralLanes = 4

// mulVecLanes sets y[l] = a*x[l] for every lane in one pass over the
// rows, where a is top stacked over the implicit rows [unit*I 0] that
// fill it out to square. Each stored row is summed in Dot's order, so
// it equals the corresponding MulVec element bit for bit; the lanes'
// independent sums keep the floating-point units busy where one Dot
// stalls on its own running sum.
func mulVecLanes(top *Dense, unit float64, x, y *[spectralLanes][]float64) {
	n := top.cols
	for i := 0; i < top.rows; i++ {
		row := top.data[i*n : (i+1)*n]
		x0, x1, x2, x3 := x[0][:len(row)], x[1][:len(row)], x[2][:len(row)], x[3][:len(row)]
		var s0, s1, s2, s3 float64
		for j, v := range row {
			s0 += v * x0[j]
			s1 += v * x1[j]
			s2 += v * x2[j]
			s3 += v * x3[j]
		}
		y[0][i], y[1][i], y[2][i], y[3][i] = s0, s1, s2, s3
	}
	for i := top.rows; i < n; i++ {
		k := i - top.rows
		y[0][i], y[1][i], y[2][i], y[3][i] = unit*x[0][k], unit*x[1][k], unit*x[2][k], unit*x[3][k]
	}
}
