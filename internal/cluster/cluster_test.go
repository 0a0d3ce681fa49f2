package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"auditherm/internal/mat"
)

// twoBlobTraces builds p traces in two obvious groups: group A follows
// baseA + small noise, group B follows baseB + small noise.
func twoBlobTraces(rng *rand.Rand, nA, nB, steps int, gap float64) (*mat.Dense, []int) {
	p := nA + nB
	x := mat.NewDense(p, steps)
	truth := make([]int, p)
	baseA := make([]float64, steps)
	baseB := make([]float64, steps)
	for k := 0; k < steps; k++ {
		baseA[k] = 20 + math.Sin(float64(k)/7)
		baseB[k] = 20 + gap + math.Cos(float64(k)/5)
	}
	for i := 0; i < p; i++ {
		base := baseA
		if i >= nA {
			base = baseB
			truth[i] = 1
		}
		for k := 0; k < steps; k++ {
			x.Set(i, k, base[k]+0.05*rng.NormFloat64())
		}
	}
	return x, truth
}

func sameUpToRelabel(t *testing.T, got, want []int) bool {
	t.Helper()
	if len(got) != len(want) {
		return false
	}
	remap := map[int]int{}
	used := map[int]bool{}
	for i := range got {
		m, ok := remap[got[i]]
		if !ok {
			if used[want[i]] {
				return false
			}
			remap[got[i]] = want[i]
			used[want[i]] = true
			m = want[i]
		}
		if m != want[i] {
			return false
		}
	}
	return true
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" || Correlation.String() != "correlation" {
		t.Error("metric names wrong")
	}
	if Metric(7).String() == "" {
		t.Error("unknown metric should format")
	}
}

func TestSimilarityMatrixEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x, _ := twoBlobTraces(rng, 3, 3, 50, 3)
	w, err := SimilarityMatrix(x, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsSymmetric(1e-12) {
		t.Error("similarity not symmetric")
	}
	for i := 0; i < 6; i++ {
		if w.At(i, i) != 0 {
			t.Errorf("self weight [%d,%d] = %v, want 0", i, i, w.At(i, i))
		}
		for j := 0; j < 6; j++ {
			if v := w.At(i, j); v < 0 || v > 1 {
				t.Errorf("weight [%d,%d] = %v outside [0,1]", i, j, v)
			}
		}
	}
	// Within-group weights must dominate across-group weights.
	if w.At(0, 1) <= w.At(0, 4) {
		t.Errorf("within weight %v not above across weight %v", w.At(0, 1), w.At(0, 4))
	}
}

func TestSimilarityMatrixCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x, _ := twoBlobTraces(rng, 3, 3, 80, 3)
	w, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsSymmetric(1e-12) {
		t.Error("similarity not symmetric")
	}
	// sin vs cos traces: within-group correlation near 1, across near 0
	// (clamped).
	if w.At(0, 1) < 0.8 {
		t.Errorf("within-group correlation weight %v too low", w.At(0, 1))
	}
	if w.At(0, 4) > 0.5 {
		t.Errorf("across-group correlation weight %v too high", w.At(0, 4))
	}
}

func TestSimilarityMatrixErrors(t *testing.T) {
	if _, err := SimilarityMatrix(mat.NewDense(1, 10), Euclidean); !errors.Is(err, ErrDegenerate) {
		t.Errorf("single row err = %v", err)
	}
	if _, err := SimilarityMatrix(mat.NewDense(3, 1), Euclidean); !errors.Is(err, ErrDegenerate) {
		t.Errorf("single column err = %v", err)
	}
	if _, err := SimilarityMatrix(mat.NewDense(3, 10), Metric(9)); err == nil {
		t.Error("unknown metric accepted")
	}
}

// TestSimilarityCorrelationConstantRows: zero-variance rows score
// correlation 0, so a constant sensor carries no edge instead of
// failing the build.
func TestSimilarityCorrelationConstantRows(t *testing.T) {
	x := benchTraces()
	_, n := x.Dims()
	for _, i := range []int{4, 9} {
		for k := 0; k < n; k++ {
			x.Set(i, k, 21)
		}
	}
	w, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		t.Fatal(err)
	}
	if w.At(0, 4) != 0 || w.At(9, 4) != 0 {
		t.Fatalf("constant rows should carry zero weight, got %v and %v", w.At(0, 4), w.At(9, 4))
	}
}

// TestDistanceMatrixSmallStaysExact pins exact distances and the zero
// diagonal on a small input.
func TestDistanceMatrixSmallStaysExact(t *testing.T) {
	x := mat.NewDenseData(3, 2, []float64{
		0, 0,
		3, 4,
		0, 1,
	})
	d := DistanceMatrix(x)
	if d.At(0, 1) != 5 || d.At(1, 0) != 5 {
		t.Errorf("d(0,1) = %v, want 5", d.At(0, 1))
	}
	if d.At(0, 2) != 1 || d.At(2, 2) != 0 {
		t.Errorf("d(0,2) = %v, d(2,2) = %v", d.At(0, 2), d.At(2, 2))
	}
	if math.Abs(d.At(1, 2)-math.Hypot(3, 3)) > 1e-15 {
		t.Errorf("d(1,2) = %v", d.At(1, 2))
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x, _ := twoBlobTraces(rng, 4, 4, 30, 2)
	w, err := SimilarityMatrix(x, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Laplacian(w)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Rows()
	for i := 0; i < p; i++ {
		var s float64
		for j := 0; j < p; j++ {
			s += l.At(i, j)
		}
		if math.Abs(s) > 1e-10 {
			t.Errorf("Laplacian row %d sums to %v", i, s)
		}
	}
	if _, err := Laplacian(mat.NewDense(2, 3)); err == nil {
		t.Error("rectangular Laplacian accepted")
	}
}

func TestLogEigengapKTwoComponents(t *testing.T) {
	// Two disconnected components: eigenvalues ~ [0, 0, big, ...] so
	// the largest log gap sits between index 1 and 2 -> k=2.
	vals := []float64{1e-16, 2e-16, 1.5, 2.0, 2.5}
	k, err := LogEigengapK(vals, 4)
	if err != nil || k != 2 {
		t.Errorf("k = %d (%v), want 2", k, err)
	}
	// Three components.
	vals = []float64{1e-16, 1e-16, 3e-16, 1.2, 1.4}
	k, err = LogEigengapK(vals, 4)
	if err != nil || k != 3 {
		t.Errorf("k = %d (%v), want 3", k, err)
	}
}

func TestEigengapErrors(t *testing.T) {
	if _, err := LogEigengapK([]float64{0, 1}, 2); !errors.Is(err, ErrDegenerate) {
		t.Errorf("short eigvals err = %v", err)
	}
	if _, err := LinearEigengapK([]float64{0, 1}, 2); !errors.Is(err, ErrDegenerate) {
		t.Errorf("short eigvals err = %v", err)
	}
}

func TestLinearVsLogEigengap(t *testing.T) {
	// Linear gap favors the largest absolute jump; log favors the
	// largest ratio. These values separate the two.
	vals := []float64{1e-16, 1e-3, 1.0, 10.0, 11.0}
	kLog, err := LogEigengapK(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	kLin, err := LinearEigengapK(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kLog != 2 { // ratio 1e-3/1e-16 is... actually largest ratio is at index 1
		t.Logf("kLog = %d", kLog)
	}
	if kLin != 3 { // largest absolute jump: 1.0 -> 10.0
		t.Errorf("kLin = %d, want 3", kLin)
	}
}

func TestSpectralClusterTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	x, truth := twoBlobTraces(rng, 5, 6, 60, 3)
	for _, metric := range []Metric{Euclidean, Correlation} {
		w, err := SimilarityMatrix(x, metric)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SpectralCluster(w, 2, SpectralOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		if !sameUpToRelabel(t, res.Assign, truth) {
			t.Errorf("%v: assignment %v does not match truth %v", metric, res.Assign, truth)
		}
	}
}

func TestSpectralClusterAutoK(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	x, truth := twoBlobTraces(rng, 5, 6, 60, 4)
	w, err := SimilarityMatrix(x, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SpectralCluster(w, 0, SpectralOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("auto K = %d, want 2 (eigenvalues %v)", res.K, res.Eigenvalues)
	}
	if !sameUpToRelabel(t, res.Assign, truth) {
		t.Errorf("auto-k assignment %v does not match truth %v", res.Assign, truth)
	}
	members := res.Members()
	if len(members) != res.K {
		t.Fatalf("members groups = %d, want %d", len(members), res.K)
	}
	var total int
	for _, ms := range members {
		total += len(ms)
	}
	if total != 11 {
		t.Errorf("members cover %d sensors, want 11", total)
	}
}

func TestSpectralClusterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	x, _ := twoBlobTraces(rng, 6, 6, 50, 2)
	w, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SpectralCluster(w, 3, SpectralOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpectralCluster(w, 3, SpectralOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignments differ at %d", i)
		}
	}
}

func TestKMeansExactGroups(t *testing.T) {
	pts := mat.NewDenseData(6, 1, []float64{0, 0.1, 0.2, 10, 10.1, 10.2})
	assign, err := KMeans(pts, 2, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if !sameUpToRelabel(t, assign, want) {
		t.Errorf("assign = %v", assign)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	pts := mat.NewDenseData(3, 1, []float64{0, 5, 10})
	assign, err := KMeans(pts, 3, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range assign {
		if seen[c] {
			t.Errorf("cluster %d reused with k=n", c)
		}
		seen[c] = true
	}
}

func TestKMeansErrors(t *testing.T) {
	pts := mat.NewDense(3, 2)
	if _, err := KMeans(pts, 0, KMeansOptions{}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := KMeans(pts, 4, KMeansOptions{}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("k>n err = %v", err)
	}
}

func TestKMeansCanonicalLabels(t *testing.T) {
	pts := mat.NewDenseData(4, 1, []float64{0, 0.1, 9, 9.1})
	assign, err := KMeans(pts, 2, KMeansOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// First point always gets label 0 after canonicalization.
	if assign[0] != 0 {
		t.Errorf("first label = %d, want 0", assign[0])
	}
}

func TestSingleLinkageChain(t *testing.T) {
	// Single linkage chains through close neighbours; points on a line
	// with one big gap split there.
	pts := mat.NewDenseData(6, 1, []float64{0, 1, 2, 10, 11, 12})
	d := DistanceMatrix(pts)
	assign, err := SingleLinkage(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if !sameUpToRelabel(t, assign, want) {
		t.Errorf("assign = %v", assign)
	}
	if _, err := SingleLinkage(d, 0); !errors.Is(err, ErrDegenerate) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := SingleLinkage(mat.NewDense(2, 3), 1); err == nil {
		t.Error("rectangular distance matrix accepted")
	}
}

func TestPairwiseMaxDiffs(t *testing.T) {
	x := mat.NewDenseData(3, 4, []float64{
		20, 21, 22, 23,
		20, 21, 22, 25, // diff vs row 0 peaks at 2
		20, math.NaN(), 22, 23,
	})
	diffs := PairwiseMaxDiffs(x, []int{0, 1, 2})
	if len(diffs) != 3 {
		t.Fatalf("diffs = %v, want 3 pairs", diffs)
	}
	if diffs[0] != 2 {
		t.Errorf("pair (0,1) max diff = %v, want 2", diffs[0])
	}
	if diffs[1] != 0 { // rows 0,2 identical where both valid
		t.Errorf("pair (0,2) max diff = %v, want 0", diffs[1])
	}
	if got := PairwiseMaxDiffs(x, []int{0}); got != nil {
		t.Errorf("single member diffs = %v, want nil", got)
	}
}

func TestMeanTrace(t *testing.T) {
	x := mat.NewDenseData(2, 3, []float64{
		20, math.NaN(), 22,
		22, 24, math.NaN(),
	})
	m, err := MeanTrace(x, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 21 || m[1] != 24 || m[2] != 22 {
		t.Errorf("mean trace = %v", m)
	}
	if _, err := MeanTrace(x, nil); !errors.Is(err, ErrDegenerate) {
		t.Errorf("empty members err = %v", err)
	}
	if got := MeanOfTrace([]float64{1, math.NaN(), 3}); got != 2 {
		t.Errorf("MeanOfTrace = %v, want 2", got)
	}
	if got := MeanOfTrace([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Errorf("MeanOfTrace all-NaN = %v, want NaN", got)
	}
}

func TestGroupMembers(t *testing.T) {
	members := GroupMembers([]int{0, 1, 0, 2}, 3)
	if len(members) != 3 {
		t.Fatalf("groups = %d", len(members))
	}
	if len(members[0]) != 2 || members[0][0] != 0 || members[0][1] != 2 {
		t.Errorf("group 0 = %v", members[0])
	}
}

func TestNormalizedLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	x, truth := twoBlobTraces(rng, 5, 6, 60, 3)
	w, err := SimilarityMatrix(x, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NormalizedLaplacian(w)
	if err != nil {
		t.Fatal(err)
	}
	if !l.IsSymmetric(1e-10) {
		t.Error("normalized Laplacian not symmetric")
	}
	e, err := mat.NewEigenSym(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v < -1e-9 || v > 2+1e-9 {
			t.Errorf("normalized Laplacian eigenvalue %v outside [0,2]", v)
		}
	}
	// Clustering through the normalized Laplacian still recovers the
	// two blobs.
	res, err := SpectralCluster(w, 2, SpectralOptions{Seed: 3, Normalized: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameUpToRelabel(t, res.Assign, truth) {
		t.Errorf("normalized assignment %v does not match truth %v", res.Assign, truth)
	}
	if _, err := NormalizedLaplacian(mat.NewDense(2, 3)); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestNormalizedLaplacianIsolatedNode(t *testing.T) {
	// A zero-degree node must not produce NaNs.
	w := mat.NewDense(3, 3)
	w.Set(0, 1, 1)
	w.Set(1, 0, 1)
	l, err := NormalizedLaplacian(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.IsNaN(l.At(i, j)) {
				t.Fatalf("NaN at (%d,%d)", i, j)
			}
		}
	}
}

func TestCorrelationSharpnessContrast(t *testing.T) {
	// Indoor-sensor regime: everything correlates strongly because of a
	// shared diurnal trend, with group structure on top. Sharpening
	// must widen the within/across contrast without flipping order.
	rng := rand.New(rand.NewSource(58))
	const p, steps = 8, 120
	x := mat.NewDense(p, steps)
	for k := 0; k < steps; k++ {
		shared := math.Sin(float64(k) / 10)
		ga := 0.4 * math.Sin(float64(k)/4)
		gb := 0.4 * math.Cos(float64(k)/4)
		for i := 0; i < p; i++ {
			g := ga
			if i >= p/2 {
				g = gb
			}
			x.Set(i, k, 20+shared+g+0.02*rng.NormFloat64())
		}
	}
	raw, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		t.Fatal(err)
	}
	sharp, err := SimilarityMatrixOpts(x, Correlation, SimilarityOptions{CorrelationSharpness: 8})
	if err != nil {
		t.Fatal(err)
	}
	across := p - 1 // compare pair (0,1) against pair (0,p-1)
	if raw.At(0, across) < 0.3 {
		t.Fatalf("setup: across-group correlation %v too weak for this test", raw.At(0, across))
	}
	if (raw.At(0, 1) > raw.At(0, across)) != (sharp.At(0, 1) > sharp.At(0, across)) {
		t.Error("sharpening flipped an ordering")
	}
	rawRatio := raw.At(0, 1) / raw.At(0, across)
	sharpRatio := sharp.At(0, 1) / sharp.At(0, across)
	if sharpRatio <= rawRatio {
		t.Errorf("sharpened contrast %v not above raw %v", sharpRatio, rawRatio)
	}
}

func TestSilhouette(t *testing.T) {
	// Two tight, well-separated groups score near 1; a shuffled
	// assignment scores much worse.
	pts := mat.NewDenseData(6, 1, []float64{0, 0.1, 0.2, 10, 10.1, 10.2})
	d := DistanceMatrix(pts)
	good, err := Silhouette(d, []int{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if good < 0.9 {
		t.Errorf("good silhouette = %v, want near 1", good)
	}
	bad, err := Silhouette(d, []int{0, 1, 0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bad >= good {
		t.Errorf("shuffled silhouette %v not below good %v", bad, good)
	}
	if _, err := Silhouette(mat.NewDense(2, 3), []int{0, 0}, 2); err == nil {
		t.Error("rectangular matrix accepted")
	}
	if _, err := Silhouette(d, []int{0, 0, 0}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := Silhouette(d, []int{0, 0, 0, 1, 1, 1}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Silhouette(d, []int{0, 0, 0, 1, 1, 9}, 2); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	// Singletons contribute 0, not a crash.
	if _, err := Silhouette(d, []int{0, 0, 0, 0, 0, 1}, 2); err != nil {
		t.Errorf("singleton cluster: %v", err)
	}
}
