package mat

import "auditherm/internal/obs"

// Numeric-kernel instrumentation. The counters live on the obs Default
// registry and cost one atomic add per factorization, eigensolve or
// radius estimate, so they are negligible against the O(n^3) work they
// count.
var (
	eigensolvesTotal = obs.NewCounter("auditherm_mat_eigensolves_total",
		"Symmetric eigendecompositions performed (cyclic Jacobi).")
	jacobiSweepsTotal = obs.NewCounter("auditherm_mat_jacobi_sweeps_total",
		"Jacobi sweeps executed across all eigensolves.")
	qrFactorizationsTotal = obs.NewCounter("auditherm_mat_qr_factorizations_total",
		"Householder QR factorizations performed.")
	spectralRadiusEstimatesTotal = obs.NewCounter("auditherm_mat_spectral_radius_estimates_total",
		"Power-iteration spectral-radius estimates (SpectralRadius and CompanionSpectralRadius).")
)
