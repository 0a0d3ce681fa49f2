// Package estimate provides state estimation on top of the identified
// thermal models: a Kalman filter that reconstructs the full sensor
// temperature field from the few sensors kept after selection
// ("virtual sensing").
//
// This closes the loop on the paper's sensor-removal story: after the
// dense training deployment is reduced to one representative per
// cluster, the discarded locations can still be estimated in real time
// by fusing the identified dynamics with the remaining measurements.
package estimate

import (
	"errors"
	"fmt"

	"auditherm/internal/mat"
	"auditherm/internal/sysid"
)

// ErrBadConfig is returned (wrapped) for invalid filter parameters.
var ErrBadConfig = errors.New("estimate: invalid configuration")

// Config parameterizes the Kalman filter.
type Config struct {
	// Model is the identified thermal model over all p sensors.
	Model *sysid.Model
	// ObservedRows are the model output indices with live measurements.
	ObservedRows []int
	// ProcessVar is the per-state process noise variance (degC^2 per
	// step); it absorbs model error.
	ProcessVar float64
	// MeasureVar is the per-measurement noise variance (degC^2); the
	// paper's sensors are +-0.5 degC accurate.
	MeasureVar float64
}

// Filter is a linear Kalman filter over the model's companion-form
// state. For second-order models the state is [T(k); T(k-1)].
type Filter struct {
	cfg Config
	p   int // sensor count
	n   int // state dimension (p or 2p)
	f   *mat.Dense
	g   *mat.Dense
	h   *mat.Dense // measurement matrix: len(observed) x n
	x   []float64
	cov *mat.Dense
}

// NewFilter validates cfg and initializes the state at init (length p,
// the current temperatures) with prior variance priorVar.
func NewFilter(cfg Config, init []float64, priorVar float64) (*Filter, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("estimate: filter needs a model: %w", ErrBadConfig)
	}
	p := cfg.Model.NumSensors()
	if len(init) != p {
		return nil, fmt.Errorf("estimate: init state length %d, want %d: %w", len(init), p, ErrBadConfig)
	}
	if len(cfg.ObservedRows) == 0 {
		return nil, fmt.Errorf("estimate: no observed sensors: %w", ErrBadConfig)
	}
	seen := map[int]bool{}
	for _, r := range cfg.ObservedRows {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("estimate: observed row %d outside %d sensors: %w", r, p, ErrBadConfig)
		}
		if seen[r] {
			return nil, fmt.Errorf("estimate: duplicate observed row %d: %w", r, ErrBadConfig)
		}
		seen[r] = true
	}
	if cfg.ProcessVar <= 0 || cfg.MeasureVar <= 0 || priorVar <= 0 {
		return nil, fmt.Errorf("estimate: variances must be positive: %w", ErrBadConfig)
	}

	n := p
	if cfg.Model.Order == sysid.SecondOrder {
		n = 2 * p
	}
	f := mat.NewDense(n, n)
	g := mat.NewDense(n, cfg.Model.NumInputs())
	switch cfg.Model.Order {
	case sysid.FirstOrder:
		for i := 0; i < p; i++ {
			copy(f.RawRow(i), cfg.Model.A.RawRow(i))
			copy(g.RawRow(i), cfg.Model.B.RawRow(i))
		}
	case sysid.SecondOrder:
		// T(k+1) = (A+A2) T(k) - A2 T(k-1) + B u(k); T(k) carries down.
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				f.Set(i, j, cfg.Model.A.At(i, j)+cfg.Model.A2.At(i, j))
				f.Set(i, j+p, -cfg.Model.A2.At(i, j))
			}
			f.Set(i+p, i, 1)
			copy(g.RawRow(i), cfg.Model.B.RawRow(i))
		}
	default:
		return nil, fmt.Errorf("estimate: unsupported model order %v: %w", cfg.Model.Order, ErrBadConfig)
	}
	h := mat.NewDense(len(cfg.ObservedRows), n)
	for i, r := range cfg.ObservedRows {
		h.Set(i, r, 1)
	}
	x := make([]float64, n)
	copy(x, init)
	if n == 2*p {
		copy(x[p:], init)
	}
	cov := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		cov.Set(i, i, priorVar)
	}
	return &Filter{cfg: cfg, p: p, n: n, f: f, g: g, h: h, x: x, cov: cov}, nil
}

// Step advances one model step: predict with the inputs u, then update
// with the measurements z (one per observed row, in ObservedRows
// order). Pass z == nil to skip the update (prediction only, e.g.
// during a sensor outage).
func (f *Filter) Step(u, z []float64) error {
	if len(u) != f.g.Cols() {
		return fmt.Errorf("estimate: input length %d, want %d: %w", len(u), f.g.Cols(), ErrBadConfig)
	}
	if z != nil && len(z) != len(f.cfg.ObservedRows) {
		return fmt.Errorf("estimate: measurement length %d, want %d: %w",
			len(z), len(f.cfg.ObservedRows), ErrBadConfig)
	}
	// Predict.
	x := f.f.MulVec(f.x)
	mat.Axpy(1, f.g.MulVec(u), x)
	cov := f.f.Mul(f.cov).Mul(f.f.T())
	// Process noise enters the temperature block only (the T(k-1) copy
	// is deterministic), but a small floor on every state keeps the
	// covariance well conditioned.
	for i := 0; i < f.n; i++ {
		q := f.cfg.ProcessVar
		if i >= f.p {
			q = f.cfg.ProcessVar * 1e-3
		}
		cov.Set(i, i, cov.At(i, i)+q)
	}
	f.x, f.cov = x, cov
	if z == nil {
		return nil
	}
	return f.update(z)
}

// update applies the measurement update with z, one measurement per
// observed row.
func (f *Filter) update(z []float64) error {
	h := f.h
	ph := f.cov.Mul(h.T())
	s := h.Mul(ph)
	for i := 0; i < s.Rows(); i++ {
		s.Set(i, i, s.At(i, i)+f.cfg.MeasureVar)
	}
	sInv, err := mat.Inverse(s)
	if err != nil {
		return fmt.Errorf("estimate: innovation covariance: %w", err)
	}
	k := ph.Mul(sInv)
	innov := make([]float64, len(z))
	for i := range z {
		innov[i] = z[i] - mat.Dot(h.RawRow(i), f.x)
	}
	mat.Axpy(1, k.MulVec(innov), f.x)
	kh := k.Mul(h)
	f.cov = mat.Identity(f.n).Sub(kh).Mul(f.cov)
	return nil
}

// Estimate returns the current temperature estimates for all sensors.
func (f *Filter) Estimate() []float64 {
	out := make([]float64, f.p)
	copy(out, f.x[:f.p])
	return out
}

// Variance returns the current estimate variance per sensor.
func (f *Filter) Variance() []float64 {
	out := make([]float64, f.p)
	for i := 0; i < f.p; i++ {
		out[i] = f.cov.At(i, i)
	}
	return out
}
