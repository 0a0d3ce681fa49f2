package experiments

import (
	"fmt"
	"math"
	"strings"

	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/mat"
	"auditherm/internal/selection"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
)

// selectionSeeds is how many random draws SRS/RS statistics average
// over; the paper reports single draws, averaging keeps the
// reproduction stable.
const selectionSeeds = 10

// selectionContext bundles what every selection experiment needs: a
// correlation-metric clustering at k clusters, training traces for
// choosing sensors and validation traces for scoring them.
type selectionContext struct {
	k             int
	membersLocal  [][]int    // wireless-local indices into trainX rows
	membersGlobal [][]int    // rows of env.Temps
	trainX        *mat.Dense // wireless sensors, training columns
	validAll      *mat.Dense // all 27 sensors, validation columns
}

// newSelectionContext builds the shared context for k clusters (k <= 0
// lets the eigengap choose).
func (e *Env) newSelectionContext(k int) (*selectionContext, error) {
	cl, err := e.clusterWith(cluster.Correlation, k)
	if err != nil {
		return nil, err
	}
	trainX, err := e.WirelessTrainTraces()
	if err != nil {
		return nil, err
	}
	wins, err := e.ValidWindows(dataset.Occupied)
	if err != nil {
		return nil, err
	}
	return &selectionContext{
		k:             cl.K,
		membersLocal:  cl.members,
		membersGlobal: e.GlobalWireless(cl.members),
		trainX:        trainX,
		validAll:      e.AllValidTraces(wins),
	}, nil
}

// localToGlobal maps wireless-local sensor indices to env.Temps rows.
func (e *Env) localToGlobal(local []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = e.WirelessIdx[l]
	}
	return out
}

// score99 returns the 99th percentile of cluster-mean prediction
// errors for per-cluster representative sets (global indices) on the
// validation traces.
func (sc *selectionContext) score99(selected [][]int) (float64, error) {
	errs, err := selection.ClusterMeanErrors(sc.validAll, sc.membersGlobal, selected)
	if err != nil {
		return 0, err
	}
	return stats.Percentile(errs, 99)
}

// smsSelection picks one near-mean sensor per cluster (global indices,
// one singleton set per cluster).
func (e *Env) smsSelection(sc *selectionContext) ([][]int, error) {
	local, err := selection.StratifiedNearMean(sc.trainX, sc.membersLocal)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(local))
	for c, l := range local {
		out[c] = []int{e.WirelessIdx[l]}
	}
	return out, nil
}

// srsSelection draws nPer random members per cluster.
func (e *Env) srsSelection(sc *selectionContext, nPer int, seed int64) ([][]int, error) {
	local, err := selection.StratifiedRandom(sc.membersLocal, nPer, seed)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(local))
	for c, ls := range local {
		out[c] = e.localToGlobal(ls)
	}
	return out, nil
}

// rsSelection draws k wireless sensors ignoring clusters and assigns
// them one per cluster in order.
func (e *Env) rsSelection(sc *selectionContext, seed int64) ([][]int, error) {
	local, err := selection.SimpleRandom(len(e.WirelessIdx), sc.k, seed)
	if err != nil {
		return nil, err
	}
	return selection.AssignToClusters(e.localToGlobal(local), sc.k), nil
}

// gpSelection picks k sensors by greedy mutual information over the
// training covariance (the incremental O(k·p^3) placement kernel; see
// internal/selection). It returns the per-cluster representative sets
// and the raw picked rows.
func (e *Env) gpSelection(sc *selectionContext) ([][]int, []int, error) {
	cov, err := stats.CovarianceMatrix(sc.trainX)
	if err != nil {
		return nil, nil, err
	}
	local, err := selection.GreedyMI(cov, sc.k)
	if err != nil {
		// Covariances of gap-heavy traces can carry NaN entries; the
		// placement now rejects them up front instead of panicking.
		return nil, nil, fmt.Errorf("experiments: GP placement over training covariance: %w", err)
	}
	// GP ignores the clusters when choosing; score it generously by
	// letting each cluster use whichever selected sensors are its own
	// members, falling back to the full selected set for clusters GP
	// left uncovered (the paper's cool-zone failure case).
	global := e.localToGlobal(local)
	out := make([][]int, sc.k)
	for c, members := range sc.membersGlobal {
		for _, s := range global {
			for _, m := range members {
				if s == m {
					out[c] = append(out[c], s)
				}
			}
		}
		if len(out[c]) == 0 {
			out[c] = append([]int(nil), global...)
		}
	}
	return out, global, nil
}

// TableIIResult reproduces Table II: 99th-percentile cluster-mean
// prediction error per selection method at k=2 correlation clusters.
type TableIIResult struct {
	SMS, SRS, RS, Thermostats, GP float64
	// SelectedSMS and SelectedGP record the chosen sensor IDs.
	SelectedSMS, SelectedGP []int
}

// TableII compares the five selection strategies.
func TableII(e *Env) (*TableIIResult, error) {
	sc, err := e.newSelectionContext(2)
	if err != nil {
		return nil, err
	}
	res := &TableIIResult{}

	sms, err := e.smsSelection(sc)
	if err != nil {
		return nil, err
	}
	if res.SMS, err = sc.score99(sms); err != nil {
		return nil, err
	}
	for _, s := range sms {
		res.SelectedSMS = append(res.SelectedSMS, e.SensorID(s[0]))
	}

	var srsSum, rsSum float64
	for seed := int64(1); seed <= selectionSeeds; seed++ {
		srs, err := e.srsSelection(sc, 1, seed)
		if err != nil {
			return nil, err
		}
		v, err := sc.score99(srs)
		if err != nil {
			return nil, err
		}
		srsSum += v
		rs, err := e.rsSelection(sc, seed)
		if err != nil {
			return nil, err
		}
		if v, err = sc.score99(rs); err != nil {
			return nil, err
		}
		rsSum += v
	}
	res.SRS = srsSum / selectionSeeds
	res.RS = rsSum / selectionSeeds

	thermo := selection.AssignToClusters(e.ThermoIdx, sc.k)
	if res.Thermostats, err = sc.score99(thermo); err != nil {
		return nil, err
	}

	gp, picks, err := e.gpSelection(sc)
	if err != nil {
		return nil, err
	}
	if res.GP, err = sc.score99(gp); err != nil {
		return nil, err
	}
	for _, s := range picks {
		res.SelectedGP = append(res.SelectedGP, e.SensorID(s))
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *TableIIResult) String() string {
	var b strings.Builder
	b.WriteString("Table II: 99th percentile of cluster-mean prediction error (degC), 2 clusters\n")
	fmt.Fprintf(&b, "%-14s %-8s\n", "method", "error")
	fmt.Fprintf(&b, "%-14s %-8.2f (sensors %v)\n", "SMS", r.SMS, r.SelectedSMS)
	fmt.Fprintf(&b, "%-14s %-8.2f\n", "SRS", r.SRS)
	fmt.Fprintf(&b, "%-14s %-8.2f\n", "RS", r.RS)
	fmt.Fprintf(&b, "%-14s %-8.2f\n", "Thermostats", r.Thermostats)
	fmt.Fprintf(&b, "%-14s %-8.2f (sensors %v)\n", "GP", r.GP, r.SelectedGP)
	return b.String()
}

// Figure9Result reproduces Fig. 9: SRS cluster-mean error vs the
// number of sensors chosen per cluster.
type Figure9Result struct {
	SensorsPerCluster []int
	Err99             []float64
}

// Figure9 sweeps SRS sensors-per-cluster 1..8 at k=2.
func Figure9(e *Env) (*Figure9Result, error) {
	sc, err := e.newSelectionContext(2)
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{}
	for n := 1; n <= 8; n++ {
		var sum float64
		for seed := int64(1); seed <= selectionSeeds; seed++ {
			sel, err := e.srsSelection(sc, n, seed)
			if err != nil {
				return nil, err
			}
			v, err := sc.score99(sel)
			if err != nil {
				return nil, err
			}
			sum += v
		}
		res.SensorsPerCluster = append(res.SensorsPerCluster, n)
		res.Err99 = append(res.Err99, sum/selectionSeeds)
	}
	return res, nil
}

// String renders the sweep.
func (r *Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: SRS 99th pct error vs sensors per cluster (k=2)\n")
	fmt.Fprintf(&b, "%-10s", "sensors")
	for _, n := range r.SensorsPerCluster {
		fmt.Fprintf(&b, "%-7d", n)
	}
	fmt.Fprintf(&b, "\n%-10s", "error")
	for _, v := range r.Err99 {
		fmt.Fprintf(&b, "%-7.2f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// Figure10Result reproduces Fig. 10: 99th-percentile cluster-mean
// error vs cluster count for SMS, SRS and RS.
type Figure10Result struct {
	ClusterCounts []int
	SMS, SRS, RS  []float64
}

// Figure10 sweeps k = 2..8.
func Figure10(e *Env) (*Figure10Result, error) {
	res := &Figure10Result{}
	for k := 2; k <= 8; k++ {
		sc, err := e.newSelectionContext(k)
		if err != nil {
			return nil, err
		}
		sms, err := e.smsSelection(sc)
		if err != nil {
			return nil, err
		}
		smsV, err := sc.score99(sms)
		if err != nil {
			return nil, err
		}
		var srsSum, rsSum float64
		for seed := int64(1); seed <= selectionSeeds; seed++ {
			srs, err := e.srsSelection(sc, 1, seed)
			if err != nil {
				return nil, err
			}
			v, err := sc.score99(srs)
			if err != nil {
				return nil, err
			}
			srsSum += v
			rs, err := e.rsSelection(sc, seed)
			if err != nil {
				return nil, err
			}
			if v, err = sc.score99(rs); err != nil {
				return nil, err
			}
			rsSum += v
		}
		res.ClusterCounts = append(res.ClusterCounts, k)
		res.SMS = append(res.SMS, smsV)
		res.SRS = append(res.SRS, srsSum/selectionSeeds)
		res.RS = append(res.RS, rsSum/selectionSeeds)
	}
	return res, nil
}

// String renders the sweep.
func (r *Figure10Result) String() string {
	return renderClusterSweep("Figure 10: 99th pct cluster-mean error vs cluster count",
		r.ClusterCounts, r.SMS, r.SRS, r.RS)
}

func renderClusterSweep(title string, ks []int, sms, srs, rs []float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s", "clusters")
	for _, k := range ks {
		fmt.Fprintf(&b, "%-7d", k)
	}
	fmt.Fprintf(&b, "\n%-10s", "SMS")
	for _, v := range sms {
		fmt.Fprintf(&b, "%-7.2f", v)
	}
	fmt.Fprintf(&b, "\n%-10s", "SRS")
	for _, v := range srs {
		fmt.Fprintf(&b, "%-7.2f", v)
	}
	fmt.Fprintf(&b, "\n%-10s", "RS")
	for _, v := range rs {
		fmt.Fprintf(&b, "%-7.2f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// Figure11Result reproduces Fig. 11: 99th-percentile prediction error
// of the simplified (reduced) thermal models identified from the
// selected sensors only.
type Figure11Result struct {
	ClusterCounts []int
	SMS, SRS, RS  []float64
}

// Figure11 sweeps k = 2..8 fitting reduced second-order models on the
// representative sensors and scoring their free-run predictions
// against the true cluster means.
func Figure11(e *Env) (*Figure11Result, error) {
	res := &Figure11Result{}
	for k := 2; k <= 8; k++ {
		sc, err := e.newSelectionContext(k)
		if err != nil {
			return nil, err
		}
		sms, err := e.smsSelection(sc)
		if err != nil {
			return nil, err
		}
		smsV, err := e.reducedModelError99(sc, flattenReps(sms))
		if err != nil {
			return nil, err
		}
		var srsSum, rsSum float64
		srsN, rsN := 0, 0
		for seed := int64(1); seed <= selectionSeeds; seed++ {
			srs, err := e.srsSelection(sc, 1, seed)
			if err != nil {
				return nil, err
			}
			if v, err := e.reducedModelError99(sc, flattenReps(srs)); err == nil {
				srsSum += v
				srsN++
			}
			rs, err := e.rsSelection(sc, seed)
			if err != nil {
				return nil, err
			}
			if v, err := e.reducedModelError99(sc, flattenReps(rs)); err == nil {
				rsSum += v
				rsN++
			}
		}
		if srsN == 0 || rsN == 0 {
			return nil, fmt.Errorf("experiments: no evaluable reduced models at k=%d", k)
		}
		res.ClusterCounts = append(res.ClusterCounts, k)
		res.SMS = append(res.SMS, smsV)
		res.SRS = append(res.SRS, srsSum/float64(srsN))
		res.RS = append(res.RS, rsSum/float64(rsN))
	}
	return res, nil
}

// flattenReps extracts the first representative of each cluster.
func flattenReps(sel [][]int) []int {
	out := make([]int, len(sel))
	for c, s := range sel {
		out[c] = s[0]
	}
	return out
}

// reducedModelError99 fits a second-order model over only the
// representative sensors (one per cluster, global indices) and scores
// its free-run predictions against the true cluster-mean temperature
// on the validation windows.
func (e *Env) reducedModelError99(sc *selectionContext, reps []int) (float64, error) {
	reduced := sysid.Data{Temps: e.Temps, Inputs: e.Inputs}.SelectSensors(reps)
	trainWins, err := e.TrainWindows(dataset.Occupied)
	if err != nil {
		return 0, err
	}
	model, err := sysid.Fit(reduced, trainWins, sysid.SecondOrder, sysid.DefaultOptions())
	if err != nil {
		return 0, err
	}
	validWins, err := e.ValidWindows(dataset.Occupied)
	if err != nil {
		return 0, err
	}
	var errs []float64
	for _, w := range validWins {
		pred, _, first, err := sysid.PredictWindow(model, reduced, w)
		if err != nil {
			continue // window without a usable run
		}
		for c, members := range sc.membersGlobal {
			for k := 0; k < pred.Cols(); k++ {
				truth := nanMeanAt(e.Temps, members, first+k)
				if math.IsNaN(truth) {
					continue
				}
				errs = append(errs, math.Abs(pred.At(c, k)-truth))
			}
		}
	}
	if len(errs) == 0 {
		return 0, fmt.Errorf("experiments: reduced model produced no comparable predictions: %w",
			sysid.ErrInsufficientData)
	}
	return stats.Percentile(errs, 99)
}

// nanMeanAt is the NaN-aware mean of the given rows at one column.
func nanMeanAt(x *mat.Dense, rows []int, col int) float64 {
	var sum float64
	var n int
	for _, r := range rows {
		v := x.At(r, col)
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// String renders the sweep.
func (r *Figure11Result) String() string {
	return renderClusterSweep("Figure 11: 99th pct error of simplified models vs cluster count",
		r.ClusterCounts, r.SMS, r.SRS, r.RS)
}
