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
	return spectralRadius(a, iters, lanes)
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
	return spectralRadius(top, iters, lanes)
}

// spectralRadius estimates the spectral radius of the n x n matrix
// whose first m rows are the m x n matrix top and whose remaining n-m
// rows are [I 0]: row m+i holds a 1 in column i and zeros elsewhere.
// Those implicit rows count toward the max-abs entry and the rescale
// like stored ones. Their products are exact copies, so skipping their
// zero terms changes at most the sign of a zero, and every later step
// depends only on magnitudes. The lane kernel k does the iterating;
// every kernel returns the same float64.
func spectralRadius(top *Dense, iters int, k laneKernel) (float64, error) {
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
	// advance k.width at a time, so each pass over the rows feeds every
	// lane's product; lanes past the last restart start at zero, stay
	// zero and never count, as does a lane once its norm is 0.
	w, q := k.width, k.width/4
	buf := make([][4]float64, (2*n+1)*q)
	x, y, lam := buf[:n*q], buf[n*q:2*n*q], buf[2*n*q:]
	var best float64
	for r0 := 0; r0 <= n; r0 += w {
		clear(x)
		for l := 0; l < w; l++ {
			switch r := r0 + l; {
			case r < n:
				x[r*q+l/4][l%4] = 1
			case r == n:
				for j := 0; j < n; j++ {
					x[j*q+l/4][l%4] = 1
				}
			}
		}
		for it := 0; it < iters; it++ {
			k.mulVec(top.data, m, n, unit, x, y)
			k.normalize(y, n, lam)
			x, y = y, x
			if largest(lam) == 0 {
				break // no lane is live
			}
		}
		if v := largest(lam); v > best {
			best = v
		}
	}
	return scale * best, nil
}

// largest returns the largest of the lanes' norms, 0 when no lane is
// live.
func largest(lam [][4]float64) float64 {
	var mx float64
	for _, quad := range lam {
		for _, v := range quad {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}
