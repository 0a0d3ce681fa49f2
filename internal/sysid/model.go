// Package sysid implements the paper's thermal model identification:
// first-order and second-order linear dynamic models of the sensor
// temperature field driven by HVAC airflow, occupancy, lighting and
// ambient temperature (paper eq. 1 and 2), identified by piecewise
// least squares over the gap-free segments of the trace (paper eq. 4),
// and evaluated by free-run prediction error.
package sysid

import (
	"errors"
	"fmt"

	"auditherm/internal/mat"
)

// Order selects the model structure.
type Order int

// Supported model orders.
const (
	// FirstOrder is the paper's eq. 1: T(k+1) = A*T(k) + B*u(k).
	FirstOrder Order = 1
	// SecondOrder is the paper's eq. 2, parameterized as
	// T(k+1) = A*T(k) + A2*dT(k) + B*u(k) with dT(k) = T(k)-T(k-1).
	SecondOrder Order = 2
)

// String returns the order name.
func (o Order) String() string {
	switch o {
	case FirstOrder:
		return "first-order"
	case SecondOrder:
		return "second-order"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// ErrInsufficientData is returned (wrapped) when the valid segments
// contain too few equations to identify the parameters.
var ErrInsufficientData = errors.New("sysid: insufficient data")

// Model is an identified linear thermal model.
type Model struct {
	// Order is the model structure (FirstOrder or SecondOrder).
	Order Order
	// A couples the temperature state: p x p; off-diagonal entries are
	// the thermal interactions between sensor locations.
	A *mat.Dense
	// A2 couples the temperature trend dT(k); nil for first order.
	A2 *mat.Dense
	// B couples the inputs u(k): p x m.
	B *mat.Dense
	// rho is the spectral-radius estimate of A and A2 recorded by Fit
	// (the value its stabilization verified on the final dynamics) and
	// by Load; 0 when not recorded.
	rho float64
}

// NumSensors returns p, the model's output dimension.
func (m *Model) NumSensors() int { return m.A.Rows() }

// NumInputs returns the input dimension.
func (m *Model) NumInputs() int { return m.B.Cols() }

// Predict computes one step: T(k+1) from T(k), dT(k) and u(k).
// dT is ignored for first-order models (may be nil).
func (m *Model) Predict(t, dt, u []float64) ([]float64, error) {
	p := m.NumSensors()
	if len(t) != p {
		return nil, fmt.Errorf("sysid: state length %d, want %d", len(t), p)
	}
	if len(u) != m.NumInputs() {
		return nil, fmt.Errorf("sysid: input length %d, want %d", len(u), m.NumInputs())
	}
	out := m.A.MulVec(t)
	if m.Order == SecondOrder {
		if len(dt) != p {
			return nil, fmt.Errorf("sysid: trend length %d, want %d", len(dt), p)
		}
		mat.Axpy(1, m.A2.MulVec(dt), out)
	}
	mat.Axpy(1, m.B.MulVec(u), out)
	return out, nil
}

// Simulate free-runs the model: starting from T(0)=t0 (and, for second
// order, T(-1)=tPrev), it feeds back its own predictions while applying
// the measured inputs. inputs is m x H (columns are u(0..H-1)); the
// result is p x H with column j holding the prediction of T(j+1).
func (m *Model) Simulate(t0, tPrev []float64, inputs *mat.Dense) (*mat.Dense, error) {
	p := m.NumSensors()
	if len(t0) != p {
		return nil, fmt.Errorf("sysid: initial state length %d, want %d", len(t0), p)
	}
	if m.Order == SecondOrder && len(tPrev) != p {
		return nil, fmt.Errorf("sysid: second-order simulation needs T(-1) of length %d", p)
	}
	mIn, h := inputs.Dims()
	if mIn != m.NumInputs() {
		return nil, fmt.Errorf("sysid: inputs have %d rows, want %d", mIn, m.NumInputs())
	}
	out := mat.NewDense(p, h)
	cur := append([]float64(nil), t0...)
	var prev []float64
	if m.Order == SecondOrder {
		prev = append([]float64(nil), tPrev...)
	}
	dt := make([]float64, p)
	u := make([]float64, mIn)
	for k := 0; k < h; k++ {
		for i := 0; i < mIn; i++ {
			u[i] = inputs.At(i, k)
		}
		if m.Order == SecondOrder {
			for i := range dt {
				dt[i] = cur[i] - prev[i]
			}
		}
		next, err := m.Predict(cur, dt, u)
		if err != nil {
			return nil, err
		}
		out.SetCol(k, next)
		prev, cur = cur, next
	}
	return out, nil
}

// SpectralRadius estimates the dominant dynamics magnitude of the
// model's companion form; a value below 1 indicates a stable
// identified model. Fit's stability projection and Load record the
// estimate, and SpectralRadius then returns it without iterating
// (editing such a model's A or A2 in place leaves it stale); other
// models compute it on every call.
func (m *Model) SpectralRadius() (float64, error) {
	if m.rho > 0 {
		return m.rho, nil
	}
	return m.spectralRadius()
}

// spectralRadius computes SpectralRadius's estimate from A and A2.
func (m *Model) spectralRadius() (float64, error) {
	p := m.NumSensors()
	if m.Order == FirstOrder {
		return mat.SpectralRadius(m.A, 300)
	}
	// Companion form for the state [T(k); T(k-1)]:
	//   T(k+1)   = (A+A2) T(k) - A2 T(k-1)
	//   T(k)     = T(k)
	// Only the top block row [A+A2, -A2] is stored; the kernel supplies
	// the identity rows.
	top := mat.NewDense(p, 2*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			top.Set(i, j, m.A.At(i, j)+m.A2.At(i, j))
			top.Set(i, j+p, -m.A2.At(i, j))
		}
	}
	return mat.CompanionSpectralRadius(top, 300)
}
