package sysid

import (
	"errors"
	"fmt"
	"math"

	"auditherm/internal/mat"
	"auditherm/internal/par"
	"auditherm/internal/timeseries"
)

// Data couples the measured outputs and inputs on a common grid.
// NaN entries mark missing measurements.
type Data struct {
	// Temps is p x N: one row per temperature sensor.
	Temps *mat.Dense
	// Inputs is m x N: one row per model input (VAV flows, occupancy,
	// light, ambient).
	Inputs *mat.Dense
}

// NumSensors returns p.
func (d Data) NumSensors() int { return d.Temps.Rows() }

// NumInputs returns m.
func (d Data) NumInputs() int { return d.Inputs.Rows() }

// Validate checks the two matrices cover the same steps.
func (d Data) Validate() error {
	if d.Temps == nil || d.Inputs == nil {
		return fmt.Errorf("sysid: data needs both temps and inputs")
	}
	_, nt := d.Temps.Dims()
	_, ni := d.Inputs.Dims()
	if nt != ni {
		return fmt.Errorf("sysid: temps cover %d steps but inputs cover %d", nt, ni)
	}
	return nil
}

// ValidMask returns the steps where every sensor and every input is
// finite.
func (d Data) ValidMask() ([]bool, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	rows := make([][]float64, 0, d.Temps.Rows()+d.Inputs.Rows())
	for i := 0; i < d.Temps.Rows(); i++ {
		rows = append(rows, d.Temps.RawRow(i))
	}
	for i := 0; i < d.Inputs.Rows(); i++ {
		rows = append(rows, d.Inputs.RawRow(i))
	}
	return timeseries.ValidMask(rows)
}

// SelectSensors returns a Data view restricted to the given sensor row
// indices (inputs unchanged). The selected sensor rows are copied; the
// input matrix is shared with the receiver, not cloned — callers must
// not mutate it through the view. (The previous deep clone of the full
// m x N input matrix made FitDecoupled pay p redundant copies per
// identification.)
func (d Data) SelectSensors(rows []int) Data {
	cols := make([]int, d.Temps.Cols())
	for i := range cols {
		cols[i] = i
	}
	return Data{
		Temps:  d.Temps.SubMatrix(rows, cols),
		Inputs: d.Inputs,
	}
}

// Options tunes the identification.
type Options struct {
	// Ridge is the Tikhonov regularization weight; a small positive
	// value keeps near-collinear regressors (e.g. four VAVs commanded
	// identically) from blowing up the solve. Zero disables it.
	Ridge float64
	// MinSegment is the minimum number of contiguous valid steps a
	// segment needs to contribute equations. Zero selects order+2.
	MinSegment int
	// StabilityRadius, when positive, projects the identified dynamics
	// to at most this spectral radius (within a relative 1e-9 of
	// rounding slack) and refits the input matrix B on
	// the residuals with the dynamics held fixed. One-step least
	// squares routinely returns marginally unstable thermal models
	// (radius slightly above 1) whose free-run predictions diverge
	// over a day; the projection trades a little one-step accuracy for
	// bounded long-horizon error. Zero disables the projection;
	// DefaultOptions uses 0.999. The check uses Model.SpectralRadius, a
	// power-iteration estimate that can read above the true radius, so
	// some already-stable fits are shrunk too.
	StabilityRadius float64
}

// DefaultOptions returns the options used throughout the paper
// reproduction.
func DefaultOptions() Options {
	return Options{Ridge: 1e-6, MinSegment: 0, StabilityRadius: 0.999}
}

// equations holds the assembled regression system: per equation the
// temperature features (T(k), optionally dT(k)), the input features
// u(k) and the p targets T(k+1).
type equations struct {
	tempFeat  [][]float64
	inputFeat [][]float64
	targets   [][]float64
}

// assemble gathers regression equations from every valid run inside
// every window. mask marks the steps usable for this fit (all relevant
// channels finite); it is passed in so batched per-sensor fits can
// share one input-validity computation instead of recomputing the full
// mask per sensor.
func assemble(d Data, windows []timeseries.Segment, order Order, minSeg int, mask []bool) (*equations, error) {
	p := d.NumSensors()
	m := d.NumInputs()
	eqs := &equations{}
	for _, w := range windows {
		if w.Start < 0 || w.End > len(mask) || w.Start > w.End {
			return nil, fmt.Errorf("sysid: window %+v outside %d-step data", w, len(mask))
		}
		for _, run := range timeseries.Segments(mask[w.Start:w.End]) {
			runStart := w.Start + run.Start
			runEnd := w.Start + run.End
			if runEnd-runStart < minSeg {
				continue
			}
			kFirst := runStart
			if order == SecondOrder {
				kFirst++ // need T(k-1)
			}
			for k := kFirst; k+1 < runEnd; k++ {
				tf := make([]float64, 0, 2*p)
				target := make([]float64, p)
				for i := 0; i < p; i++ {
					tf = append(tf, d.Temps.At(i, k))
					target[i] = d.Temps.At(i, k+1)
				}
				if order == SecondOrder {
					for i := 0; i < p; i++ {
						tf = append(tf, d.Temps.At(i, k)-d.Temps.At(i, k-1))
					}
				}
				uf := make([]float64, m)
				for i := 0; i < m; i++ {
					uf[i] = d.Inputs.At(i, k)
				}
				eqs.tempFeat = append(eqs.tempFeat, tf)
				eqs.inputFeat = append(eqs.inputFeat, uf)
				eqs.targets = append(eqs.targets, target)
			}
		}
	}
	return eqs, nil
}

// solveRidge solves min ||X theta - Y||^2 + ridge ||theta||^2 with one
// QR factorization shared across the targets' columns.
func solveRidge(x, y *mat.Dense, ridge float64) (*mat.Dense, error) {
	rows, nf := x.Dims()
	_, nt := y.Dims()
	aug := x
	rhs := y
	if ridge > 0 {
		aug = mat.NewDense(rows+nf, nf)
		rhs = mat.NewDense(rows+nf, nt)
		for r := 0; r < rows; r++ {
			copy(aug.RawRow(r), x.RawRow(r))
			copy(rhs.RawRow(r), y.RawRow(r))
		}
		s := math.Sqrt(ridge)
		for j := 0; j < nf; j++ {
			aug.Set(rows+j, j, s)
		}
	}
	qr, err := mat.NewQR(aug)
	if err != nil {
		return nil, fmt.Errorf("sysid: factoring design matrix: %w", err)
	}
	designCondition.Set(qr.ConditionEstimate())
	theta, err := qr.SolveMatrix(rhs)
	if err != nil {
		return nil, fmt.Errorf("sysid: solving normal equations: %w", err)
	}
	return theta, nil
}

// Fit identifies a thermal model of the given order from the valid
// segments of data inside the given windows (paper eq. 4: an ensemble
// of contiguous intervals solved as one least-squares problem).
func Fit(d Data, windows []timeseries.Segment, order Order, opts Options) (*Model, error) {
	mask, err := d.ValidMask()
	if err != nil {
		return nil, err
	}
	return fitMasked(d, windows, order, opts, mask)
}

// fitMasked is Fit with the validity mask precomputed by the caller
// (FitDecoupled shares the input-channel validity across its p
// per-sensor fits instead of recomputing the full mask p times).
func fitMasked(d Data, windows []timeseries.Segment, order Order, opts Options, mask []bool) (*Model, error) {
	if order != FirstOrder && order != SecondOrder {
		return nil, fmt.Errorf("sysid: unsupported order %v", order)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.Ridge < 0 {
		return nil, fmt.Errorf("sysid: negative ridge %v", opts.Ridge)
	}
	if opts.StabilityRadius < 0 || opts.StabilityRadius >= 1.5 {
		return nil, fmt.Errorf("sysid: stability radius %v outside [0, 1.5)", opts.StabilityRadius)
	}
	minSeg := opts.MinSegment
	if minSeg <= 0 {
		minSeg = int(order) + 2
	}
	p := d.NumSensors()
	m := d.NumInputs()
	nf := p + m
	if order == SecondOrder {
		nf += p
	}
	eqs, err := assemble(d, windows, order, minSeg, mask)
	if err != nil {
		return nil, err
	}
	nEq := len(eqs.targets)
	if nEq < nf {
		return nil, fmt.Errorf("sysid: %d equations for %d unknowns per sensor: %w",
			nEq, nf, ErrInsufficientData)
	}
	fitsTotal.Inc()
	fitWindowsTotal.Add(int64(len(windows)))
	fitEquationsTotal.Add(int64(nEq))

	// Full joint solve for [A | A2 | B].
	x := mat.NewDense(nEq, nf)
	y := mat.NewDense(nEq, p)
	for r := 0; r < nEq; r++ {
		row := x.RawRow(r)
		copy(row, eqs.tempFeat[r])
		copy(row[len(eqs.tempFeat[r]):], eqs.inputFeat[r])
		copy(y.RawRow(r), eqs.targets[r])
	}
	theta, err := solveRidge(x, y, opts.Ridge)
	if err != nil {
		return nil, err
	}
	model := &Model{Order: order, A: mat.NewDense(p, p), B: mat.NewDense(p, m)}
	if order == SecondOrder {
		model.A2 = mat.NewDense(p, p)
	}
	for i := 0; i < p; i++ {
		col := theta.Col(i)
		copy(model.A.RawRow(i), col[:p])
		rest := col[p:]
		if order == SecondOrder {
			copy(model.A2.RawRow(i), rest[:p])
			rest = rest[p:]
		}
		copy(model.B.RawRow(i), rest)
	}

	if opts.StabilityRadius > 0 {
		if err := model.stabilize(eqs, opts); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// ErrUnstable is returned (wrapped) when the stability projection
// cannot bring the identified dynamics inside the target spectral
// radius.
var ErrUnstable = errors.New("sysid: dynamics unstable after projection")

// stabilizeSlack is the relative tolerance of the stability check:
// floating-point rounding can leave the radius a few ulps above the
// target after an exact rescale.
const stabilizeSlack = 1e-9

// stabilize shrinks the dynamics to the target spectral radius and
// refits B on the residuals with the dynamics held fixed.
//
// One predicate decides stability everywhere: an estimate within
// stabilizeSlack of StabilityRadius is accepted by the early return,
// ends the shrink loop at the first estimate that meets it, and passes
// the final check. A loop that spends its iteration budget (or is fed
// a wrong radius estimate) with the dynamics still outside the target
// gets one last hard projection; if even that cannot land inside the
// radius, stabilize returns a wrapped ErrUnstable rather than a model
// whose free-run predictions diverge.
//
// The radius last computed here describes the final A and A2 (the B
// refit does not enter the companion matrix), so the model records it
// and SpectralRadius returns it without iterating again.
func (m *Model) stabilize(eqs *equations, opts Options) error {
	rho, err := m.spectralRadius()
	if err != nil {
		return fmt.Errorf("sysid: stability check: %w", err)
	}
	limit := opts.StabilityRadius * (1 + stabilizeSlack)
	if rho <= limit {
		m.rho = rho
		return nil
	}
	shrink := func(s float64) error {
		m.A = m.A.Scale(s)
		if m.A2 != nil {
			m.A2 = m.A2.Scale(s)
		}
		rho, err = m.spectralRadius()
		if err != nil {
			return fmt.Errorf("sysid: stability check: %w", err)
		}
		return nil
	}
	for iter := 0; iter < 100 && rho > limit; iter++ {
		if err := shrink(opts.StabilityRadius / rho); err != nil {
			return err
		}
	}
	if math.IsNaN(rho) || rho > limit {
		// Iteration cap exhausted with the radius still outside the
		// target: apply one last hard projection and re-verify.
		if err := shrink(opts.StabilityRadius / rho); err != nil {
			return err
		}
		if math.IsNaN(rho) || rho > limit {
			return fmt.Errorf("sysid: spectral radius %.6g above target %v after projection: %w",
				rho, opts.StabilityRadius, ErrUnstable)
		}
	}
	m.rho = rho
	// Refit B: targets become the one-step residuals after the (now
	// stable) dynamics term.
	p := m.NumSensors()
	mi := m.NumInputs()
	nEq := len(eqs.targets)
	x := mat.NewDense(nEq, mi)
	y := mat.NewDense(nEq, p)
	for r := 0; r < nEq; r++ {
		copy(x.RawRow(r), eqs.inputFeat[r])
		tf := eqs.tempFeat[r]
		pred := m.A.MulVec(tf[:p])
		if m.Order == SecondOrder {
			mat.Axpy(1, m.A2.MulVec(tf[p:2*p]), pred)
		}
		row := y.RawRow(r)
		for i := 0; i < p; i++ {
			row[i] = eqs.targets[r][i] - pred[i]
		}
	}
	ridge := opts.Ridge
	if ridge <= 0 {
		ridge = 1e-9 // identical VAV commands make B's columns collinear
	}
	theta, err := solveRidge(x, y, ridge)
	if err != nil {
		return fmt.Errorf("sysid: refitting B after stabilization: %w", err)
	}
	for i := 0; i < p; i++ {
		copy(m.B.RawRow(i), theta.Col(i)[:mi])
	}
	return nil
}

// FitDecoupled identifies one independent single-sensor model per
// temperature channel (each sensor predicted from its own history and
// the shared inputs only) and assembles them into a block-diagonal
// Model. This is the "traditional single sensor model" the paper's
// conclusion argues against: it cannot represent the thermal
// interactions between locations that the coupled model's off-diagonal
// A entries capture.
//
// The p per-sensor fits are fully decoupled (paper eq. 1-2 with a
// scalar state), so they run in parallel over the par worker pool at
// the process default worker count, with bit-for-bit identical results
// at any worker count. The shared
// input matrix and the input-channel validity mask are computed once
// and shared across all p fits (previously every fit deep-cloned the
// full m x N input matrix and recomputed the whole mask).
func FitDecoupled(d Data, windows []timeseries.Segment, order Order, opts Options) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	p := d.NumSensors()
	m := d.NumInputs()
	_, n := d.Temps.Dims()
	model := &Model{Order: order, A: mat.NewDense(p, p), B: mat.NewDense(p, m)}
	if order == SecondOrder {
		model.A2 = mat.NewDense(p, p)
	}
	// Input validity, computed once for all sensors.
	inputMask := make([]bool, n)
	if m == 0 {
		for k := range inputMask {
			inputMask[k] = true
		}
	} else {
		rows := make([][]float64, m)
		for i := range rows {
			rows[i] = d.Inputs.RawRow(i)
		}
		var err error
		inputMask, err = timeseries.ValidMask(rows)
		if err != nil {
			return nil, err
		}
	}
	// Per-sensor fits: each writes only row i of the shared output
	// matrices (disjoint slots), and errors are collected per index so
	// the reported error is the lowest failing sensor's, independent
	// of scheduling.
	errs := make([]error, p)
	runErr := par.ForEach(nil, 0, p, func(i int) error {
		row := d.Temps.RawRow(i)
		mask := make([]bool, n)
		for k, ok := range inputMask {
			mask[k] = ok && !math.IsNaN(row[k]) && !math.IsInf(row[k], 0)
		}
		sensor := Data{Temps: mat.NewDenseData(1, n, row), Inputs: d.Inputs}
		sub, err := fitMasked(sensor, windows, order, opts, mask)
		if err != nil {
			errs[i] = fmt.Errorf("sysid: decoupled fit of sensor %d: %w", i, err)
			return nil
		}
		model.A.Set(i, i, sub.A.At(0, 0))
		if order == SecondOrder {
			model.A2.Set(i, i, sub.A2.At(0, 0))
		}
		copy(model.B.RawRow(i), sub.B.RawRow(0))
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return model, nil
}
