package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/selection"
	"auditherm/internal/stats"
)

// sharedEnvT returns the cached paper-scale environment, failing the
// test on generation errors.
func sharedEnvT(t *testing.T) *Env {
	t.Helper()
	env, err := Shared()
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	return env
}

func TestEnvShape(t *testing.T) {
	e := sharedEnvT(t)
	if len(e.WirelessIdx) != 25 || len(e.ThermoIdx) != 2 {
		t.Fatalf("sensor split = %d wireless + %d thermostats", len(e.WirelessIdx), len(e.ThermoIdx))
	}
	if len(e.OccTrainDays) < 20 || len(e.OccValidDays) < 20 {
		t.Errorf("occupied split = %d train / %d valid days, want ~32/32",
			len(e.OccTrainDays), len(e.OccValidDays))
	}
	if got := e.HorizonSteps(PaperHorizon); got != 54 {
		t.Errorf("13.5h horizon = %d steps, want 54", got)
	}
}

func TestTableIPaperClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := TableI(e)
	if err != nil {
		t.Fatal(err)
	}
	occF, occS := res.RMS90[0][0], res.RMS90[0][1]
	unF, unS := res.RMS90[1][0], res.RMS90[1][1]
	// Paper claim 1: second-order beats first-order in occupied mode.
	if occS >= occF {
		t.Errorf("occupied: second-order %v not below first-order %v", occS, occF)
	}
	// Paper claim 2: unoccupied mode is easier than occupied mode.
	if unS >= occS || unF >= occF {
		t.Errorf("unoccupied errors (%v, %v) not below occupied (%v, %v)", unF, unS, occF, occS)
	}
	// Magnitudes: sub-degC for the best model, all within sane range.
	if occS > 1.5 {
		t.Errorf("occupied second-order RMS90 = %v, want < 1.5 degC", occS)
	}
	for _, v := range []float64{occF, occS, unF, unS} {
		if v <= 0 || v > 5 {
			t.Errorf("RMS90 %v out of range", v)
		}
	}
	if !strings.Contains(res.String(), "occupied") {
		t.Error("String() missing mode rows")
	}
}

func TestFigure2SnapshotClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := Figure2(e)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: almost 2 degC spread between warmest sensor and
	// thermostats when fully occupied.
	if res.Spread < 1 || res.Spread > 4.5 {
		t.Errorf("snapshot spread = %v, want ~2-3", res.Spread)
	}
	if len(res.Sensors) < 20 {
		t.Errorf("snapshot has %d sensors, want most of 27", len(res.Sensors))
	}
	// The coolest readings should come from the front (thermostat side).
	var coolest Figure2Sensor
	coolest.Temp = 1e9
	var warmest Figure2Sensor
	warmest.Temp = -1e9
	for _, s := range res.Sensors {
		if s.Temp < coolest.Temp {
			coolest = s
		}
		if s.Temp > warmest.Temp {
			warmest = s
		}
	}
	if coolest.Pos.X > 10 {
		t.Errorf("coolest sensor s%d at X=%v, want front half", coolest.ID, coolest.Pos.X)
	}
	if warmest.Pos.X < 10 {
		t.Errorf("warmest sensor s%d at X=%v, want back half", warmest.ID, warmest.Pos.X)
	}
	if !strings.Contains(res.String(), "thermostat") {
		t.Error("String() missing thermostat rows")
	}
}

func TestFigure3CDFClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := Figure3(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FirstRMS) < 20 || len(res.SecondRMS) < 20 {
		t.Fatalf("per-sensor RMS counts = %d, %d", len(res.FirstRMS), len(res.SecondRMS))
	}
	// Second-order CDF dominates (shifts left): compare means.
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	if mean(res.SecondRMS) >= mean(res.FirstRMS) {
		t.Errorf("second-order mean RMS %v not below first-order %v",
			mean(res.SecondRMS), mean(res.FirstRMS))
	}
	// CDFs are monotone and end at 1.
	for _, fs := range [][]float64{res.FirstF, res.SecondF} {
		for i := 1; i < len(fs); i++ {
			if fs[i] < fs[i-1] {
				t.Fatal("CDF not monotone")
			}
		}
		if fs[len(fs)-1] != 1 {
			t.Errorf("CDF ends at %v", fs[len(fs)-1])
		}
	}
}

func TestFigure4TraceClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Times)
	if n < 30 {
		t.Fatalf("trace length = %d, want a near-full occupied window", n)
	}
	if len(res.Measured) != n || len(res.First) != n || len(res.Second) != n {
		t.Fatalf("series lengths differ: %d %d %d %d",
			n, len(res.Measured), len(res.First), len(res.Second))
	}
	// Predictions stay within a few degrees of measurement all day.
	for k := 0; k < n; k++ {
		if d := res.Second[k] - res.Measured[k]; d > 3 || d < -3 {
			t.Errorf("second-order prediction off by %v at %v", d, res.Times[k])
		}
	}
	if !strings.Contains(res.String(), "measured") {
		t.Error("String() missing header")
	}
}

func TestFigure5SweepClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := Figure5(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainRMS90[0]) != len(res.TrainDays) || len(res.PredictRMS90[0]) != len(res.PredictHours) {
		t.Fatal("sweep lengths mismatch")
	}
	// Paper claim: more training data does not necessarily help — the
	// largest horizon must not be the best for the second-order model.
	sec := res.TrainRMS90[1]
	best := 0
	for i, v := range sec {
		if v < sec[best] {
			best = i
		}
	}
	if best == len(sec)-1 {
		t.Errorf("second-order best training horizon is the largest (%v); want over-fitting effect", res.TrainDays[best])
	}
	// Paper claim: error grows with prediction length (compare the
	// shortest and longest horizons).
	for oi := range res.PredictRMS90 {
		ser := res.PredictRMS90[oi]
		if ser[len(ser)-1] < ser[0]*0.9 {
			t.Errorf("order %d: error at 13.5h (%v) below 2.5h (%v)", oi+1, ser[len(ser)-1], ser[0])
		}
	}
	// Second-order below first-order at every prediction length.
	for i := range res.PredictHours {
		if res.PredictRMS90[1][i] >= res.PredictRMS90[0][i] {
			t.Errorf("at %vh second-order %v not below first-order %v",
				res.PredictHours[i], res.PredictRMS90[1][i], res.PredictRMS90[0][i])
		}
	}
}

func TestFigure6ClusteringClaims(t *testing.T) {
	e := sharedEnvT(t)
	euclid, corr, err := Figure6(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ClusteringResult{euclid, corr} {
		if r.K < 2 || r.K > 5 {
			t.Errorf("%v: k = %d, want small cluster count", r.Metric, r.K)
		}
		if len(r.Eigenvalues) != 25 {
			t.Errorf("%v: %d eigenvalues, want 25", r.Metric, len(r.Eigenvalues))
		}
		// First Laplacian eigenvalue ~ 0.
		if r.Eigenvalues[0] > 1e-6 && r.Eigenvalues[0] < -1e-6 {
			t.Errorf("%v: smallest eigenvalue %v, want ~0", r.Metric, r.Eigenvalues[0])
		}
		var total int
		for _, ids := range r.ClusterIDs {
			total += len(ids)
		}
		if total != 25 {
			t.Errorf("%v: clusters cover %d sensors, want 25", r.Metric, total)
		}
		if !strings.Contains(r.String(), "cluster 1") {
			t.Error("String() missing clusters")
		}
	}
}

func TestFigure7And8IntraClusterClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("intra-cluster sweeps in -short mode")
	}
	e := sharedEnvT(t)
	f7, err := Figure7(e)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Figure8(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != 3 || len(f8) != 4 {
		t.Fatalf("panel counts = %d, %d, want 3, 4", len(f7), len(f8))
	}
	// Paper claim: correlation-based clusters hang together. In the
	// simulated room temperature level and correlation structure mostly
	// coincide, so Euclidean clusters correlate well too; the checkable
	// core of the claim is that correlation-metric clusters always show
	// strong intra-cluster correlation.
	for _, r := range f8 {
		if c := r.MeanIntraClusterCorrelation(); c < 0.5 {
			t.Errorf("correlation k=%d: mean intra-cluster correlation %v, want strong", r.K, c)
		}
	}
	// Clusters beat the overall distribution: some cluster's 95th pct
	// must sit clearly below the room-wide 95th pct.
	for _, r := range append(append([]*IntraClusterResult{}, f7...), f8...) {
		better := false
		for _, d := range r.Diff95 {
			if d < r.Overall95 {
				better = true
			}
		}
		if !better {
			t.Errorf("%v k=%d: no cluster tighter than overall %v", r.Metric, r.K, r.Overall95)
		}
		if !strings.Contains(r.String(), "overall") {
			t.Error("String() missing overall row")
		}
	}
}

func TestTableIIPaperOrdering(t *testing.T) {
	e := sharedEnvT(t)
	res, err := TableII(e)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: SMS < SRS < RS, and both uninformed
	// baselines (thermostats, GP) worse than RS.
	if !(res.SMS < res.SRS && res.SRS < res.RS) {
		t.Errorf("ordering broken: SMS %v, SRS %v, RS %v", res.SMS, res.SRS, res.RS)
	}
	if res.Thermostats < res.SRS {
		t.Errorf("thermostats %v should not beat SRS %v", res.Thermostats, res.SRS)
	}
	if res.GP < res.SMS {
		t.Errorf("GP %v should not beat SMS %v", res.GP, res.SMS)
	}
	if len(res.SelectedSMS) != 2 || len(res.SelectedGP) != 2 {
		t.Errorf("selected IDs = %v, %v, want 2 each", res.SelectedSMS, res.SelectedGP)
	}
	if !strings.Contains(res.String(), "Thermostats") {
		t.Error("String() missing rows")
	}
}

// TestGPPathsAgreeOnAuditoriumCovariance runs both GreedyMI
// implementations at k=2 clusters over the training covariance the
// paper's GP baseline uses — the in-pipeline analogue of the synthetic
// determinism suite in internal/selection.
func TestGPPathsAgreeOnAuditoriumCovariance(t *testing.T) {
	e := sharedEnvT(t)
	sc, err := e.newSelectionContext(2)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := stats.CovarianceMatrix(sc.trainX)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := selection.GreedyMI(cov, sc.k)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := selection.GreedyMINaive(cov, sc.k)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != sc.k {
		t.Errorf("selected %d sensors, want %d", len(fast), sc.k)
	}
	if !slices.Equal(fast, naive) {
		t.Errorf("placement paths disagree: fast %v naive %v", fast, naive)
	}
}

func TestFigure9MoreSensorsHelp(t *testing.T) {
	e := sharedEnvT(t)
	res, err := Figure9(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Err99) != 8 {
		t.Fatalf("sweep points = %d, want 8", len(res.Err99))
	}
	// Paper claim: error decreases as sensors per cluster grow.
	if res.Err99[7] >= res.Err99[0] {
		t.Errorf("8 sensors (%v) not better than 1 (%v)", res.Err99[7], res.Err99[0])
	}
	if res.Err99[1] >= res.Err99[0] {
		t.Errorf("2 sensors (%v) not better than 1 (%v)", res.Err99[1], res.Err99[0])
	}
}

func TestFigure10SelectionOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-count sweep in -short mode")
	}
	e := sharedEnvT(t)
	res, err := Figure10(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClusterCounts) != 7 {
		t.Fatalf("sweep points = %d, want 7", len(res.ClusterCounts))
	}
	for i, k := range res.ClusterCounts {
		if res.SMS[i] > res.SRS[i] {
			t.Errorf("k=%d: SMS %v above SRS %v", k, res.SMS[i], res.SRS[i])
		}
		if res.SRS[i] > res.RS[i] {
			t.Errorf("k=%d: SRS %v above RS %v", k, res.SRS[i], res.RS[i])
		}
	}
	if !strings.Contains(res.String(), "clusters") {
		t.Error("String() missing header")
	}
}

func TestFigure11SimplifiedModels(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-model sweep in -short mode")
	}
	e := sharedEnvT(t)
	res, err := Figure11(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClusterCounts) != 7 {
		t.Fatalf("sweep points = %d, want 7", len(res.ClusterCounts))
	}
	for i, k := range res.ClusterCounts {
		// Clustering-aware selections beat RS for the reduced models.
		if res.SMS[i] > res.RS[i] {
			t.Errorf("k=%d: SMS %v above RS %v", k, res.SMS[i], res.RS[i])
		}
	}
	// Paper claim: model quality improves with more sensors — the last
	// point should not be worse than the first for SMS.
	if res.SMS[len(res.SMS)-1] > res.SMS[0] {
		t.Errorf("SMS reduced-model error rose with more sensors: %v -> %v",
			res.SMS[0], res.SMS[len(res.SMS)-1])
	}
}

func TestIntraClusterBadK(t *testing.T) {
	e := sharedEnvT(t)
	if _, err := IntraCluster(e, cluster.Euclidean, 40); err == nil {
		t.Error("k beyond sensor count accepted")
	}
}

func TestNewEnvSmallTrace(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Days = 10
	cfg.SimStep = time.Minute
	cfg.MaxStale = 90 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 1
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	if env.Temps.Rows() != 27 {
		t.Errorf("temps rows = %d", env.Temps.Rows())
	}
}

func TestControlStudyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop control study in -short mode")
	}
	e := sharedEnvT(t)
	res, err := ControlStudy(e, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byName := map[string]int{}
	for i, r := range res.Rows {
		byName[r.Controller] = i
	}
	dead := res.Rows[byName["deadband-thermostat"]]
	full := res.Rows[byName["mpc-full-27"]]
	simp := res.Rows[byName["mpc-simplified-2"]]
	// All controllers keep the room livable.
	for _, r := range res.Rows {
		if r.ComfortRMS > 2.5 {
			t.Errorf("%s comfort RMS %v too large", r.Controller, r.ComfortRMS)
		}
	}
	// Model-predictive control spends far less cooling energy.
	if full.CoolingKWh > dead.CoolingKWh/2 {
		t.Errorf("full MPC energy %v not well below deadband %v", full.CoolingKWh, dead.CoolingKWh)
	}
	// The paper's thesis, closed loop: the simplified 2-sensor model is
	// as good a control substrate as the full 27-sensor model.
	if simp.ComfortRMS > full.ComfortRMS*1.25+0.1 {
		t.Errorf("simplified MPC comfort %v much worse than full %v", simp.ComfortRMS, full.ComfortRMS)
	}
	if simp.CoolingKWh > full.CoolingKWh*1.5 {
		t.Errorf("simplified MPC energy %v much worse than full %v", simp.CoolingKWh, full.CoolingKWh)
	}
	if len(res.SimplifiedSensors) != 2 {
		t.Errorf("simplified sensors = %v", res.SimplifiedSensors)
	}
	if !strings.Contains(res.String(), "mpc-simplified-2") {
		t.Error("String() missing rows")
	}
}

func TestVirtualSensingClaims(t *testing.T) {
	e := sharedEnvT(t)
	res, err := VirtualSensing(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ObservedSensors) != 2 {
		t.Fatalf("observed sensors = %v", res.ObservedSensors)
	}
	// Fusing the model with 2 live sensors must beat both the naive
	// representative hold and the open-loop model.
	if res.KalmanRMS >= res.HoldRMS {
		t.Errorf("Kalman RMS %v not below representative hold %v", res.KalmanRMS, res.HoldRMS)
	}
	if res.KalmanRMS >= res.OpenLoopRMS {
		t.Errorf("Kalman RMS %v not below open loop %v", res.KalmanRMS, res.OpenLoopRMS)
	}
	// And the reconstruction is usefully tight in absolute terms.
	if res.KalmanRMS > 0.5 {
		t.Errorf("Kalman RMS %v above the sensors' own 0.5 degC accuracy", res.KalmanRMS)
	}
	if !strings.Contains(res.String(), "Kalman") {
		t.Error("String() missing rows")
	}
}
