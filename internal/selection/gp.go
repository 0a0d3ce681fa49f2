// Gaussian-process mutual-information sensor placement (Krause, Singh
// and Guestrin's near-optimal greedy algorithm, the paper's GP
// baseline), engineered to scale past the paper's 27 sensors.
//
// Two implementations share one scoring rule and are proven
// selection-identical by the property suite in gp_test.go:
//
//   - GreedyMINaive — the textbook reference: every candidate in every
//     round refactors two dense systems from scratch, O(n·p^4) overall.
//     Retained as the oracle for equivalence tests and benchmarks.
//   - GreedyMI, the incremental path — one Cholesky of the
//     unselected-set covariance per *round* with all complement
//     variances read off the precision diagonal
//     (Var(y | U∖y) = 1/(Σ_U^-1)_yy), and a rank-grown factor
//     (mat.Cholesky.AppendRow) for the selected-set numerator:
//     O(n·p^3) overall.
package selection

import (
	"errors"
	"fmt"
	"math"

	"auditherm/internal/mat"
)

// gpJitter is added to conditional variances (and factor diagonals) to
// keep them positive; it matches the reference implementation so all
// paths score candidates on the same footing.
const gpJitter = 1e-9

// ErrNoCandidate is returned (wrapped) when no remaining sensor
// produces a usable mutual-information score in some round.
var ErrNoCandidate = errors.New("selection: no candidate produced a usable MI score")

// GreedyMI picks n sensors by greedily maximizing the mutual
// information between selected and unselected locations under a
// Gaussian process with the given covariance (Krause et al.'s
// near-optimal placement, the paper's GP baseline). A small jitter is
// added to keep conditional variances positive.
//
// This is the incremental O(n·p^3) path; GreedyMINaive is the
// reference.
func GreedyMI(cov *mat.Dense, n int) ([]int, error) {
	p, err := validateGPCov(cov, n)
	if err != nil {
		return nil, err
	}
	selectionsTotal.Inc()
	return greedyMIFast(cov, n, p)
}

// GreedyMINaive is the retained reference implementation of GreedyMI:
// per candidate and per round it solves both conditional systems from
// scratch (O(n·p^4) total). It exists as the equivalence oracle for the
// incremental path — the determinism suite and the speed floor require
// GreedyMI and GreedyMINaive to return the same sensors in the same
// order.
func GreedyMINaive(cov *mat.Dense, n int) ([]int, error) {
	p, err := validateGPCov(cov, n)
	if err != nil {
		return nil, err
	}
	selectionsTotal.Inc()
	sel := make([]int, 0, n)
	inSel := make([]bool, p)
	for len(sel) < n {
		gpRoundsTotal.Inc()
		bestY, bestScore := -1, math.Inf(-1)
		for y := 0; y < p; y++ {
			if inSel[y] {
				continue
			}
			gpCandidateEvalsTotal.Inc()
			num, err := conditionalVar(cov, y, sel, gpJitter)
			if err != nil {
				return nil, fmt.Errorf("selection: GP conditioning on selected: %w", err)
			}
			// Complement excluding y and the already-selected set.
			var comp []int
			for j := 0; j < p; j++ {
				if j != y && !inSel[j] {
					comp = append(comp, j)
				}
			}
			den, err := conditionalVar(cov, y, comp, gpJitter)
			if err != nil {
				return nil, fmt.Errorf("selection: GP conditioning on complement: %w", err)
			}
			score := num / den
			if score > bestScore {
				bestScore, bestY = score, y
			}
		}
		if bestY < 0 {
			return nil, fmt.Errorf("selection: GP round %d: %w", len(sel), ErrNoCandidate)
		}
		sel = append(sel, bestY)
		inSel[bestY] = true
	}
	return sel, nil
}

// conditionalVar returns Var(y | cond) = cov[y,y] - cov[y,cond] *
// cov[cond,cond]^-1 * cov[cond,y] with diagonal jitter.
func conditionalVar(cov *mat.Dense, y int, cond []int, jitter float64) (float64, error) {
	vy := cov.At(y, y) + jitter
	if len(cond) == 0 {
		return vy, nil
	}
	sub := cov.SubMatrix(cond, cond)
	for i := range cond {
		sub.Set(i, i, sub.At(i, i)+jitter)
	}
	cross := make([]float64, len(cond))
	for i, j := range cond {
		cross[i] = cov.At(y, j)
	}
	sol, err := mat.Solve(sub, cross)
	if err != nil {
		return 0, err
	}
	v := vy - mat.Dot(cross, sol)
	if v < jitter {
		v = jitter
	}
	return v, nil
}

// validateGPCov checks shape, selection size and entry finiteness
// (NaN/Inf covariances previously made every score NaN and the -1
// "best" index panic downstream; now they fail fast with
// mat.ErrNonFinite).
func validateGPCov(cov *mat.Dense, n int) (int, error) {
	p, q := cov.Dims()
	if p != q {
		return 0, fmt.Errorf("selection: covariance is %dx%d: %w", p, q, mat.ErrShape)
	}
	if n < 1 || n > p {
		return 0, fmt.Errorf("selection: GP picking %d of %d sensors", n, p)
	}
	for i := 0; i < p; i++ {
		for j, v := range cov.RawRow(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("selection: GP covariance entry (%d,%d) is %v: %w", i, j, v, mat.ErrNonFinite)
			}
		}
	}
	return p, nil
}

// gpScorer evaluates MI scores for one round using the shared
// factorizations: a rank-grown Cholesky of Σ_SS (numerator) and the
// per-round precision diagonal of Σ_UU (denominator).
type gpScorer struct {
	cov   *mat.Dense
	sel   []int
	unsel []int         // current round's unselected set (ascending)
	chol  *mat.Cholesky // factor of cov[sel,sel] + jitter·I, rank-grown
	den   []float64     // denominator per sensor index, refreshed per round
	cross []float64     // workspace: cov[sel, y]
	w     []float64     // workspace: forward-solve result
}

// refreshDenominators factors the unselected-set covariance once and
// reads every complement variance off the precision diagonal:
// Var(y | U∖y) = 1/(Σ_U^-1)_yy (clamped at jitter, exactly like the
// reference's explicit Schur-complement solve).
func (s *gpScorer) refreshDenominators(unsel []int) error {
	s.unsel = unsel
	u := len(unsel)
	if u <= 2 {
		// With two candidates left, the two MI scores are mathematically
		// tied (mutual information is symmetric), so roundoff — not
		// math — would pick the winner. score() computes these O(1)
		// rounds with the reference's exact arithmetic instead, which
		// keeps the tie resolution bit-identical to GreedyMINaive.
		// (u == 1 trivially has a single candidate.)
		return nil
	}
	sub := s.cov.SubMatrix(unsel, unsel)
	for i := 0; i < u; i++ {
		sub.Set(i, i, sub.At(i, i)+gpJitter)
	}
	c, err := mat.NewCholesky(sub)
	if err != nil {
		return fmt.Errorf("selection: GP factoring unselected-set covariance: %w", err)
	}
	gpFactorizationsTotal.Inc()
	prec := make([]float64, u)
	if err := c.InverseDiag(prec); err != nil {
		return fmt.Errorf("selection: GP precision diagonal: %w", err)
	}
	for i, y := range unsel {
		d := 1 / prec[i]
		if d < gpJitter {
			d = gpJitter
		}
		s.den[y] = d
	}
	return nil
}

// score returns Var(y|S)/Var(y|U∖y) for candidate y against the
// current selected-set factor and round denominators.
func (s *gpScorer) score(y int) (float64, error) {
	gpCandidateEvalsTotal.Inc()
	if len(s.unsel) <= 2 {
		// Reference arithmetic for the tied two-candidate endgame (see
		// refreshDenominators).
		num, err := conditionalVar(s.cov, y, s.sel, gpJitter)
		if err != nil {
			return 0, fmt.Errorf("selection: GP conditioning on selected: %w", err)
		}
		var comp []int
		for _, z := range s.unsel {
			if z != y {
				comp = append(comp, z)
			}
		}
		den, err := conditionalVar(s.cov, y, comp, gpJitter)
		if err != nil {
			return 0, fmt.Errorf("selection: GP conditioning on complement: %w", err)
		}
		return num / den, nil
	}
	num := s.cov.At(y, y) + gpJitter
	if k := len(s.sel); k > 0 {
		cross := s.cross[:k]
		for i, j := range s.sel {
			cross[i] = s.cov.At(j, y)
		}
		w := s.w[:k]
		if err := s.chol.ForwardSolveTo(w, cross); err != nil {
			return 0, fmt.Errorf("selection: GP conditioning on selected: %w", err)
		}
		num -= mat.Dot(w, w)
		if num < gpJitter {
			num = gpJitter
		}
	}
	return num / s.den[y], nil
}

// add moves sensor y into the selected set, rank-growing the Σ_SS
// factor in O(k^2) (refactoring from scratch only if the grown pivot
// is numerically unusable).
func (s *gpScorer) add(y int) error {
	k := len(s.sel)
	cross := s.cross[:k]
	for i, j := range s.sel {
		cross[i] = s.cov.At(j, y)
	}
	if err := s.chol.AppendRow(cross, s.cov.At(y, y)+gpJitter); err != nil {
		if !errors.Is(err, mat.ErrSingular) {
			return fmt.Errorf("selection: GP growing selected-set factor: %w", err)
		}
		// Near-singular grown pivot: refactor the full selected set
		// (same matrix, freshly pivoted) before giving up.
		s.sel = append(s.sel, y)
		sub := s.cov.SubMatrix(s.sel, s.sel)
		for i := range s.sel {
			sub.Set(i, i, sub.At(i, i)+gpJitter)
		}
		c, cerr := mat.NewCholesky(sub)
		if cerr != nil {
			return fmt.Errorf("selection: GP selected-set covariance singular after adding sensor %d: %w", y, cerr)
		}
		gpFactorizationsTotal.Inc()
		s.chol = c
		gpFactorUpdatesTotal.Inc()
		return nil
	}
	gpFactorUpdatesTotal.Inc()
	s.sel = append(s.sel, y)
	return nil
}

// greedyMIFast is the incremental placement core. cov has already been
// validated.
func greedyMIFast(cov *mat.Dense, n, p int) ([]int, error) {
	s := &gpScorer{
		cov:   cov,
		sel:   make([]int, 0, n),
		chol:  mat.NewCholeskyGrow(n),
		den:   make([]float64, p),
		cross: make([]float64, n),
		w:     make([]float64, n),
	}
	inSel := make([]bool, p)
	unsel := make([]int, 0, p)
	for round := 0; len(s.sel) < n; round++ {
		gpRoundsTotal.Inc()
		unsel = unsel[:0]
		for y := 0; y < p; y++ {
			if !inSel[y] {
				unsel = append(unsel, y)
			}
		}
		if err := s.refreshDenominators(unsel); err != nil {
			return nil, err
		}
		bestY, bestScore := -1, math.Inf(-1)
		for _, y := range unsel {
			sc, err := s.score(y)
			if err != nil {
				return nil, err
			}
			if sc > bestScore {
				bestScore, bestY = sc, y
			}
		}
		if bestY < 0 {
			return nil, fmt.Errorf("selection: GP round %d: %w", round, ErrNoCandidate)
		}
		if err := s.add(bestY); err != nil {
			return nil, err
		}
		inSel[bestY] = true
	}
	return s.sel, nil
}
