package selection

import (
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"auditherm/internal/mat"
)

// SyntheticCovariance builds a p×p SPD sensor covariance for scale
// tests and benchmarks: a squared-exponential spatial kernel over
// uniform random positions in the unit square plus a per-sensor noise
// nugget. The nugget keeps the matrix positive definite at any p and
// the random geometry breaks score ties, so greedy selections are
// unambiguous. Deterministic in the seed.
func SyntheticCovariance(p int, seed int64) *mat.Dense {
	const (
		lengthScale = 0.3
		signalVar   = 1.0
	)
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, p)
	ys := make([]float64, p)
	nug := make([]float64, p)
	for i := 0; i < p; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
		nug[i] = 0.05 + 0.1*rng.Float64()
	}
	cov := mat.NewDense(p, p)
	inv2l2 := 1 / (2 * lengthScale * lengthScale)
	for i := 0; i < p; i++ {
		row := cov.RawRow(i)
		for j := 0; j <= i; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			v := signalVar * math.Exp(-(dx*dx+dy*dy)*inv2l2)
			row[j] = v
			cov.RawRow(j)[i] = v
		}
		row[i] += nug[i]
	}
	return cov
}

// jitteredSPD builds a random Gram matrix G*G' with a diagonal boost —
// the issue's "jittered SPD" fixture family, less structured than
// SyntheticCovariance.
func jitteredSPD(p int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	g := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		row := g.RawRow(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	cov := g.Mul(g.T())
	for i := 0; i < p; i++ {
		cov.Set(i, i, cov.At(i, i)+0.5+0.3*rng.Float64())
	}
	return cov
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGreedyMIFastNaiveIdentical is the determinism suite: the
// incremental path and the retained naive reference must pick the same
// sensors in the same order across sizes, seeds and both SPD fixture
// families.
func TestGreedyMIFastNaiveIdentical(t *testing.T) {
	for _, p := range []int{5, 27, 60} {
		if p == 60 && raceEnabled() {
			// Serial code the race detector has nothing to check in,
			// whose eight naive calls take ~17 s under -race.
			t.Log("p = 60 runs only without -race")
			continue
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, build := range []struct {
				name string
				cov  *mat.Dense
			}{
				{"synthetic", SyntheticCovariance(p, seed)},
				{"jittered", jitteredSPD(p, 100+seed)},
			} {
				n := 1 + p/3
				naive, err := GreedyMINaive(build.cov, n)
				if err != nil {
					t.Fatalf("p=%d seed=%d %s: naive: %v", p, seed, build.name, err)
				}
				fast, err := GreedyMI(build.cov, n)
				if err != nil {
					t.Fatalf("p=%d seed=%d %s: fast: %v", p, seed, build.name, err)
				}
				if !equalInts(fast, naive) {
					t.Errorf("p=%d seed=%d %s: fast %v != naive %v", p, seed, build.name, fast, naive)
				}
			}
		}
	}
}

// TestGreedyMIFastTenfoldAtP100 holds the incremental path at ten
// times the naive reference's speed at p = 100, on the same
// selection. The naive O(n·p⁴) call takes a fraction of a second
// there, and the speedup grows with p, so this floor is stricter than
// the same one at a larger p.
func TestGreedyMIFastTenfoldAtP100(t *testing.T) {
	if raceEnabled() {
		t.Skip("a timing floor: under -race the naive call takes ~8 s and times the instrumentation, not the kernels")
	}
	const (
		p, n       = 100, 8
		reps       = 5
		minSpeedup = 10.0
	)
	cov := SyntheticCovariance(p, 42+p)
	t0 := time.Now()
	naive, err := GreedyMINaive(cov, n)
	if err != nil {
		t.Fatal(err)
	}
	naiveWall := time.Since(t0)
	// The fast call is short, so it is timed over several calls.
	var fast []int
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if fast, err = GreedyMI(cov, n); err != nil {
			t.Fatal(err)
		}
	}
	fastWall := time.Since(t0) / reps
	if !equalInts(fast, naive) {
		t.Fatalf("fast %v != naive %v", fast, naive)
	}
	speedup := float64(naiveWall) / float64(fastWall)
	t.Logf("naive %v, fast %v: %.0fx", naiveWall, fastWall, speedup)
	if speedup < minSpeedup {
		t.Errorf("fast GreedyMI is %.1fx the naive reference at p=%d, below the %.0fx floor", speedup, p, minSpeedup)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestGreedyMIFullSelection drives both paths to n == p (the last
// round has a single candidate and an empty complement) across several
// sizes — the edge the precision-diagonal shortcut must special-case.
func TestGreedyMIFullSelection(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9} {
		for seed := int64(1); seed <= 6; seed++ {
			cov := SyntheticCovariance(p, seed)
			naive, err := GreedyMINaive(cov, p)
			if err != nil {
				t.Fatalf("p=%d seed=%d naive: %v", p, seed, err)
			}
			fast, err := GreedyMI(cov, p)
			if err != nil {
				t.Fatalf("p=%d seed=%d fast: %v", p, seed, err)
			}
			if !equalInts(fast, naive) {
				t.Errorf("p=%d seed=%d: fast %v naive %v", p, seed, fast, naive)
			}
		}
	}
}

// TestGreedyMITieBreakLowestIndex pins the tie-break rule: on an
// identity covariance every candidate scores identically in every
// round, so both paths must select 0, 1, 2, ... in index order.
func TestGreedyMITieBreakLowestIndex(t *testing.T) {
	const p, n = 8, 4
	cov := mat.Identity(p)
	want := []int{0, 1, 2, 3}
	for name, f := range map[string]func(*mat.Dense, int) ([]int, error){
		"naive": GreedyMINaive,
		"fast":  GreedyMI,
	} {
		got, err := f(cov, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalInts(got, want) {
			t.Errorf("%s tie-break selection = %v, want %v", name, got, want)
		}
	}
}

// TestGreedyMIRejectsNonFinite covers the regression where NaN/Inf
// covariance entries made every score NaN, bestY stayed -1 and the -1
// index panicked downstream: both paths must now return a wrapped
// mat.ErrNonFinite instead.
func TestGreedyMIRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cov := SyntheticCovariance(6, 3)
		cov.Set(2, 4, bad)
		cov.Set(4, 2, bad)
		for name, f := range map[string]func(*mat.Dense, int) ([]int, error){
			"naive": GreedyMINaive,
			"fast":  GreedyMI,
		} {
			sel, err := f(cov, 3)
			if !errors.Is(err, mat.ErrNonFinite) {
				t.Errorf("%s with %v entry: sel=%v err=%v, want ErrNonFinite", name, bad, sel, err)
			}
		}
	}
}

// TestGreedyMINaiveValidation mirrors the shape/size checks across the
// naive reference (the fast path inherits them from the same helper).
func TestGreedyMINaiveValidation(t *testing.T) {
	cov := SyntheticCovariance(4, 1)
	if _, err := GreedyMINaive(mat.NewDense(2, 3), 1); !errors.Is(err, mat.ErrShape) {
		t.Errorf("rectangular err = %v, want ErrShape", err)
	}
	if _, err := GreedyMINaive(cov, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GreedyMINaive(cov, 5); err == nil {
		t.Error("n>p accepted")
	}
}

// TestGreedyMIAgreesOnInformativeFixture re-runs the package's
// original hand-built fixture through both paths.
func TestGreedyMIAgreesOnInformativeFixture(t *testing.T) {
	cov := mat.NewDenseData(3, 3, []float64{
		1.5, 1.0, 1.0,
		1.0, 1.5, 1.0,
		1.0, 1.0, 1.0,
	})
	for name, f := range map[string]func(*mat.Dense, int) ([]int, error){
		"naive": GreedyMINaive,
		"fast":  GreedyMI,
	} {
		sel, err := f(cov, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sel[0] != 2 {
			t.Errorf("%s pick = %v, want [2]", name, sel)
		}
	}
}

func TestSyntheticCovariance(t *testing.T) {
	cov := SyntheticCovariance(100, 5)
	if r, c := cov.Dims(); r != 100 || c != 100 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	if !cov.IsSymmetric(0) {
		t.Error("synthetic covariance not exactly symmetric")
	}
	if _, err := mat.NewCholesky(cov); err != nil {
		t.Errorf("synthetic covariance not positive definite: %v", err)
	}
	// Deterministic in the seed; different across seeds.
	again := SyntheticCovariance(100, 5)
	if !cov.Equal(again, 0) {
		t.Error("same seed produced different covariances")
	}
	other := SyntheticCovariance(100, 6)
	if cov.Equal(other, 0) {
		t.Error("different seeds produced identical covariances")
	}
}

// BenchmarkGreedyMI compares the two paths at the paper's size;
// TestGreedyMIFastTenfoldAtP100 holds the speedup floor at p = 100.
func BenchmarkGreedyMI(b *testing.B) {
	cov := SyntheticCovariance(27, 9)
	const n = 8
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GreedyMI(cov, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GreedyMINaive(cov, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}
