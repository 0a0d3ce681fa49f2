package selection

import "auditherm/internal/obs"

// Sensor-selection instrumentation on the obs Default registry: one
// atomic increment per selection or scoring call, plus the GP
// placement kernel's work counters (rounds, candidate scorings and
// factorization activity), which make the O(n·p^4) → O(n·p^3) drop
// directly observable on /metrics.
var (
	selectionsTotal = obs.NewCounter("auditherm_selection_selections_total",
		"Sensor selections performed (all strategies).")
	scoringsTotal = obs.NewCounter("auditherm_selection_scorings_total",
		"Cluster-mean error scorings performed.")
	gpRoundsTotal = obs.NewCounter("auditherm_selection_gp_rounds_total",
		"GP placement greedy rounds executed (one sensor added per round).")
	gpCandidateEvalsTotal = obs.NewCounter("auditherm_selection_gp_candidate_evals_total",
		"GP placement candidate MI scores computed (naive and incremental paths).")
	gpFactorUpdatesTotal = obs.NewCounter("auditherm_selection_gp_factor_updates_total",
		"GP placement O(k^2) rank-grow updates applied to the selected-set Cholesky factor.")
	gpFactorizationsTotal = obs.NewCounter("auditherm_selection_gp_factorizations_total",
		"GP placement full Cholesky factorizations performed (one per round on the incremental path).")
)
