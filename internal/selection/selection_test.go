package selection

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"auditherm/internal/mat"
	"auditherm/internal/stats"
)

// clusteredTraces builds two clusters of traces around distinct means;
// within each cluster, member i is offset by a known amount so the
// near-mean member is unambiguous.
func clusteredTraces() (*mat.Dense, [][]int) {
	const steps = 50
	p := 6
	x := mat.NewDense(p, steps)
	// Cluster 0: rows 0,1,2 around 20 with offsets -0.4, 0.0(ish), +0.4.
	// Cluster 1: rows 3,4,5 around 22 with offsets -0.6, +0.1, +0.5.
	offsets := []float64{-0.4, 0.02, 0.4, -0.6, 0.1, 0.5}
	base := []float64{20, 20, 20, 22, 22, 22}
	for i := 0; i < p; i++ {
		for k := 0; k < steps; k++ {
			x.Set(i, k, base[i]+offsets[i]+0.3*math.Sin(float64(k)/6))
		}
	}
	return x, [][]int{{0, 1, 2}, {3, 4, 5}}
}

func TestStratifiedNearMean(t *testing.T) {
	x, members := clusteredTraces()
	sel, err := StratifiedNearMean(x, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
	// Cluster 0 mean offset 0.0067 -> member 1 closest. Cluster 1 mean
	// offset 0.0 -> member 4 (offset .1) closest.
	if sel[0] != 1 {
		t.Errorf("cluster 0 pick = %d, want 1", sel[0])
	}
	if sel[1] != 4 {
		t.Errorf("cluster 1 pick = %d, want 4", sel[1])
	}
}

func TestStratifiedNearMeanEmptyCluster(t *testing.T) {
	x, _ := clusteredTraces()
	if _, err := StratifiedNearMean(x, [][]int{{0}, {}}); !errors.Is(err, ErrEmptyCluster) {
		t.Errorf("err = %v, want ErrEmptyCluster", err)
	}
}

func TestStratifiedNearMeanWithGaps(t *testing.T) {
	x, members := clusteredTraces()
	// Punch NaNs into a member; selection must still work.
	for k := 0; k < 10; k++ {
		x.Set(0, k, math.NaN())
	}
	if _, err := StratifiedNearMean(x, members); err != nil {
		t.Fatalf("NaN-tolerant selection failed: %v", err)
	}
}

func TestStratifiedRandom(t *testing.T) {
	_, members := clusteredTraces()
	sel, err := StratifiedRandom(members, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("clusters = %d", len(sel))
	}
	for c, picks := range sel {
		if len(picks) != 2 {
			t.Errorf("cluster %d picks = %d, want 2", c, len(picks))
		}
		seen := map[int]bool{}
		for _, i := range picks {
			if seen[i] {
				t.Errorf("cluster %d repeated pick %d", c, i)
			}
			seen[i] = true
			found := false
			for _, m := range members[c] {
				if m == i {
					found = true
				}
			}
			if !found {
				t.Errorf("cluster %d picked non-member %d", c, i)
			}
		}
	}
	// Oversized request clamps to the cluster size.
	sel, err = StratifiedRandom(members, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel[0]) != 3 {
		t.Errorf("clamped picks = %d, want 3", len(sel[0]))
	}
	// Determinism.
	a, _ := StratifiedRandom(members, 1, 9)
	b, _ := StratifiedRandom(members, 1, 9)
	if a[0][0] != b[0][0] || a[1][0] != b[1][0] {
		t.Error("SRS not deterministic in seed")
	}
	if _, err := StratifiedRandom(members, 0, 1); err == nil {
		t.Error("nPer=0 accepted")
	}
	if _, err := StratifiedRandom([][]int{{}}, 1, 1); !errors.Is(err, ErrEmptyCluster) {
		t.Errorf("empty cluster err = %v", err)
	}
}

func TestSimpleRandom(t *testing.T) {
	sel, err := SimpleRandom(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("picks = %d", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 10 {
			t.Errorf("pick %d out of range", i)
		}
		if seen[i] {
			t.Errorf("repeated pick %d", i)
		}
		seen[i] = true
	}
	if _, err := SimpleRandom(3, 4, 1); err == nil {
		t.Error("k>p accepted")
	}
	if _, err := SimpleRandom(3, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestGreedyMIPrefersInformativeSensor(t *testing.T) {
	// x0 = z + e0, x1 = z + e1, x2 = z with unit-variance z and 0.5-
	// variance noises: sensor 2 observes the shared signal exactly and
	// carries the most mutual information about the rest, so with n=1
	// the greedy pick must be 2.
	cov := mat.NewDenseData(3, 3, []float64{
		1.5, 1.0, 1.0,
		1.0, 1.5, 1.0,
		1.0, 1.0, 1.0,
	})
	sel, err := GreedyMI(cov, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 2 {
		t.Errorf("GP pick = %v, want [2]", sel)
	}
}

func TestGreedyMISelectsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// Random SPD covariance.
	g := mat.NewDense(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	cov := g.Mul(g.T())
	sel, err := GreedyMI(cov, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if seen[i] {
			t.Fatalf("repeated selection %v", sel)
		}
		seen[i] = true
	}
	if _, err := GreedyMI(mat.NewDense(2, 3), 1); err == nil {
		t.Error("rectangular covariance accepted")
	}
	if _, err := GreedyMI(cov, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GreedyMI(cov, 7); err == nil {
		t.Error("n>p accepted")
	}
}

func TestClusterMeanErrorsPerfectRepresentative(t *testing.T) {
	// A cluster of identical traces: any member predicts the mean
	// exactly.
	x := mat.NewDense(2, 10)
	for k := 0; k < 10; k++ {
		x.Set(0, k, 20)
		x.Set(1, k, 20)
	}
	errs, err := ClusterMeanErrors(x, [][]int{{0, 1}}, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != 0 {
			t.Errorf("error %v, want 0", e)
		}
	}
}

func TestClusterMeanErrorsKnownBias(t *testing.T) {
	// Members at 20 and 22: mean 21. Representative = member at 20:
	// error 1 at every step.
	x := mat.NewDense(2, 5)
	for k := 0; k < 5; k++ {
		x.Set(0, k, 20)
		x.Set(1, k, 22)
	}
	errs, err := ClusterMeanErrors(x, [][]int{{0, 1}}, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 5 {
		t.Fatalf("errs = %d, want 5", len(errs))
	}
	for _, e := range errs {
		if math.Abs(e-1) > 1e-12 {
			t.Errorf("error %v, want 1", e)
		}
	}
}

func TestClusterMeanErrorsValidation(t *testing.T) {
	x := mat.NewDense(2, 5)
	if _, err := ClusterMeanErrors(x, [][]int{{0}}, [][]int{{0}, {1}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := ClusterMeanErrors(x, [][]int{{}}, [][]int{{0}}); !errors.Is(err, ErrEmptyCluster) {
		t.Errorf("empty members err = %v", err)
	}
	if _, err := ClusterMeanErrors(x, [][]int{{0}}, [][]int{{}}); !errors.Is(err, ErrEmptyCluster) {
		t.Errorf("empty selection err = %v", err)
	}
	// All-NaN overlap.
	nan := mat.NewDense(2, 3)
	for k := 0; k < 3; k++ {
		nan.Set(0, k, math.NaN())
		nan.Set(1, k, 20)
	}
	if _, err := ClusterMeanErrors(nan, [][]int{{0}}, [][]int{{1}}); !errors.Is(err, ErrEmptyCluster) {
		t.Errorf("no-overlap err = %v", err)
	}
}

func TestSMSBeatsRandomOnAverage(t *testing.T) {
	// The paper's Table II ordering: SMS <= SRS <= RS in cluster-mean
	// prediction error. Verify on traces with within-cluster spread.
	rng := rand.New(rand.NewSource(62))
	const p, steps = 12, 200
	x := mat.NewDense(p, steps)
	members := [][]int{{}, {}}
	for i := 0; i < p; i++ {
		c := i % 2
		members[c] = append(members[c], i)
		base := 20.0
		if c == 1 {
			base = 22
		}
		off := rng.NormFloat64() * 0.5
		for k := 0; k < steps; k++ {
			x.Set(i, k, base+off+0.2*math.Sin(float64(k)/9+float64(c)))
		}
	}
	sms, err := StratifiedNearMean(x, members)
	if err != nil {
		t.Fatal(err)
	}
	smsErrs, err := ClusterMeanErrors(x, members, [][]int{{sms[0]}, {sms[1]}})
	if err != nil {
		t.Fatal(err)
	}
	smsP, _ := stats.Percentile(smsErrs, 99)

	// Average SRS and RS over repetitions to compare expectations.
	var srsTot, rsTot float64
	const reps = 20
	for r := 0; r < reps; r++ {
		srs, err := StratifiedRandom(members, 1, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		se, err := ClusterMeanErrors(x, members, srs)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := stats.Percentile(se, 99)
		srsTot += sp

		rs, err := SimpleRandom(p, 2, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		re, err := ClusterMeanErrors(x, members, AssignToClusters(rs, 2))
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := stats.Percentile(re, 99)
		rsTot += rp
	}
	srsMean := srsTot / reps
	rsMean := rsTot / reps
	if smsP > srsMean {
		t.Errorf("SMS 99pct %v above SRS mean %v", smsP, srsMean)
	}
	if srsMean > rsMean {
		t.Errorf("SRS mean %v above RS mean %v", srsMean, rsMean)
	}
}

func TestAssignToClusters(t *testing.T) {
	got := AssignToClusters([]int{7, 9}, 3)
	if len(got) != 3 {
		t.Fatalf("clusters = %d", len(got))
	}
	if got[0][0] != 7 || got[1][0] != 9 || got[2][0] != 7 {
		t.Errorf("assignment = %v", got)
	}
	empty := AssignToClusters(nil, 2)
	if len(empty) != 2 || empty[0] != nil {
		t.Errorf("empty assignment = %v", empty)
	}
}
