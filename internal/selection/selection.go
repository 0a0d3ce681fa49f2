// Package selection implements the paper's sensor selection methods:
// stratified near-mean selection (SMS) and stratified random selection
// (SRS) on top of sensor clusters, the simple random (RS) and
// thermostat baselines, and near-optimal mutual-information placement
// on a Gaussian process model (GP, after Krause, Singh and Guestrin).
//
// Selected sensors stand in for their cluster: the quality metric is
// how well the selected sensors' mean predicts the cluster's true mean
// temperature over time (the paper's Table II and Figs. 9-11).
package selection

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"auditherm/internal/cluster"
	"auditherm/internal/mat"
)

// ErrEmptyCluster is returned (wrapped) when a selection method meets
// a cluster with no members.
var ErrEmptyCluster = errors.New("selection: empty cluster")

// StratifiedNearMean (SMS) picks, from each cluster, the member whose
// trace is closest (RMS, NaN-aware) to the cluster's mean trace.
// x is the sensor-by-step trace matrix; members lists each cluster's
// row indices. The result has one sensor per cluster.
func StratifiedNearMean(x *mat.Dense, members [][]int) ([]int, error) {
	selectionsTotal.Inc()
	out := make([]int, len(members))
	for c, ms := range members {
		if len(ms) == 0 {
			return nil, fmt.Errorf("selection: SMS cluster %d: %w", c, ErrEmptyCluster)
		}
		mean, err := cluster.MeanTrace(x, ms)
		if err != nil {
			return nil, fmt.Errorf("selection: SMS cluster %d: %w", c, err)
		}
		best, bestD := ms[0], math.Inf(1)
		for _, i := range ms {
			d := nanRMS(x.RawRow(i), mean)
			if d < bestD {
				bestD, best = d, i
			}
		}
		out[c] = best
	}
	return out, nil
}

// nanRMS is the RMS difference over steps where both values are finite
// (infinite when no step overlaps).
func nanRMS(a, b []float64) float64 {
	var s float64
	var n int
	for k := range a {
		if math.IsNaN(a[k]) || math.IsNaN(b[k]) {
			continue
		}
		d := a[k] - b[k]
		s += d * d
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(s / float64(n))
}

// StratifiedRandom (SRS) picks nPer distinct random members from each
// cluster (all members when the cluster is smaller). Deterministic in
// the seed.
func StratifiedRandom(members [][]int, nPer int, seed int64) ([][]int, error) {
	if nPer < 1 {
		return nil, fmt.Errorf("selection: SRS with %d sensors per cluster", nPer)
	}
	selectionsTotal.Inc()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, len(members))
	for c, ms := range members {
		if len(ms) == 0 {
			return nil, fmt.Errorf("selection: SRS cluster %d: %w", c, ErrEmptyCluster)
		}
		perm := rng.Perm(len(ms))
		n := nPer
		if n > len(ms) {
			n = len(ms)
		}
		pick := make([]int, n)
		for i := 0; i < n; i++ {
			pick[i] = ms[perm[i]]
		}
		out[c] = pick
	}
	return out, nil
}

// SimpleRandom (RS) picks k distinct sensors uniformly from all p,
// ignoring clusters; the paper then assigns them one per cluster in
// order. Deterministic in the seed.
func SimpleRandom(p, k int, seed int64) ([]int, error) {
	if k < 1 || k > p {
		return nil, fmt.Errorf("selection: RS picking %d of %d sensors", k, p)
	}
	selectionsTotal.Inc()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(p)
	out := make([]int, k)
	copy(out, perm[:k])
	return out, nil
}

// ClusterMeanErrors measures how well per-cluster representative sets
// track their cluster's mean temperature: for every cluster and every
// step where both are defined, it records |mean(selected) -
// mean(cluster members)|. selected[c] lists the sensors standing in
// for cluster c (they need not be members, e.g. the thermostat
// baseline).
func ClusterMeanErrors(x *mat.Dense, members, selected [][]int) ([]float64, error) {
	if len(members) != len(selected) {
		return nil, fmt.Errorf("selection: %d clusters but %d selections", len(members), len(selected))
	}
	scoringsTotal.Inc()
	var out []float64
	for c := range members {
		if len(members[c]) == 0 {
			return nil, fmt.Errorf("selection: cluster %d: %w", c, ErrEmptyCluster)
		}
		if len(selected[c]) == 0 {
			return nil, fmt.Errorf("selection: cluster %d has no representatives: %w", c, ErrEmptyCluster)
		}
		truth, err := cluster.MeanTrace(x, members[c])
		if err != nil {
			return nil, err
		}
		est, err := cluster.MeanTrace(x, selected[c])
		if err != nil {
			return nil, err
		}
		for k := range truth {
			if math.IsNaN(truth[k]) || math.IsNaN(est[k]) {
				continue
			}
			out = append(out, math.Abs(est[k]-truth[k]))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection: no overlapping valid steps: %w", ErrEmptyCluster)
	}
	return out, nil
}

// AssignToClusters distributes a flat selected-sensor list one per
// cluster in order, cycling when there are more clusters than sensors.
// It mirrors the paper's protocol for RS, the thermostats and GP,
// whose selections ignore clusters but are evaluated against them.
func AssignToClusters(selected []int, k int) [][]int {
	out := make([][]int, k)
	if len(selected) == 0 {
		return out
	}
	for c := 0; c < k; c++ {
		out[c] = []int{selected[c%len(selected)]}
	}
	return out
}
