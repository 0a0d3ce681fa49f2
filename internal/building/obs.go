package building

import "auditherm/internal/obs"

// Hot-path instrumentation for every archetype's Step. All metrics are
// atomic counters on the obs Default registry: one Inc and one Add per
// Step call (not per cell, not per substep), so overhead is a few
// nanoseconds against a multi-microsecond step.
var (
	stepsTotal = obs.NewCounter("auditherm_building_steps_total",
		"Building Step calls across every archetype and instance.")
	cellsStepped = obs.NewCounter("auditherm_building_cells_stepped_total",
		"Cell and zone substep updates across every archetype (substeps x cells or zones).")
)
