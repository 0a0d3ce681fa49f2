package sysid

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"auditherm/internal/mat"
	"auditherm/internal/timeseries"
)

// synthSystem is a known stable LTI system used to generate test data.
type synthSystem struct {
	a, a2, b *mat.Dense // a2 nil for first order
}

func synthFirstOrder() synthSystem {
	return synthSystem{
		a: mat.NewDenseData(2, 2, []float64{
			0.90, 0.05,
			0.04, 0.92,
		}),
		b: mat.NewDenseData(2, 2, []float64{
			0.3, 0.01,
			0.1, 0.02,
		}),
	}
}

func synthSecondOrder() synthSystem {
	s := synthFirstOrder()
	s.a2 = mat.NewDenseData(2, 2, []float64{
		0.30, 0.00,
		0.05, 0.25,
	})
	return s
}

// generate rolls the system forward from t0 with given inputs and
// returns a Data covering steps 0..n-1.
func (s synthSystem) generate(rng *rand.Rand, n int, noise float64) Data {
	p := s.a.Rows()
	m := s.b.Cols()
	temps := mat.NewDense(p, n)
	inputs := mat.NewDense(m, n)
	cur := make([]float64, p)
	prevDelta := make([]float64, p)
	for i := range cur {
		cur[i] = 20 + rng.Float64()
	}
	for k := 0; k < n; k++ {
		u := make([]float64, m)
		for i := range u {
			u[i] = rng.Float64() * 2
		}
		inputs.SetCol(k, u)
		temps.SetCol(k, cur)
		next := s.a.MulVec(cur)
		if s.a2 != nil {
			mat.Axpy(1, s.a2.MulVec(prevDelta), next)
		}
		mat.Axpy(1, s.b.MulVec(u), next)
		for i := range next {
			next[i] += rng.NormFloat64() * noise
			prevDelta[i] = next[i] - cur[i]
		}
		cur = next
	}
	return Data{Temps: temps, Inputs: inputs}
}

func fullWindow(d Data) []timeseries.Segment {
	_, n := d.Temps.Dims()
	return []timeseries.Segment{{Start: 0, End: n}}
}

func TestFitRecoversFirstOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sys := synthFirstOrder()
	d := sys.generate(rng, 400, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !m.A.Equal(sys.a, 1e-6) {
		t.Errorf("A =\n%v\nwant\n%v", m.A, sys.a)
	}
	if !m.B.Equal(sys.b, 1e-6) {
		t.Errorf("B =\n%v\nwant\n%v", m.B, sys.b)
	}
	if m.A2 != nil {
		t.Error("first-order model should have nil A2")
	}
}

func TestFitRecoversSecondOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	sys := synthSecondOrder()
	d := sys.generate(rng, 600, 0)
	m, err := Fit(d, fullWindow(d), SecondOrder, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !m.A.Equal(sys.a, 1e-5) {
		t.Errorf("A =\n%v\nwant\n%v", m.A, sys.a)
	}
	if !m.A2.Equal(sys.a2, 1e-5) {
		t.Errorf("A2 =\n%v\nwant\n%v", m.A2, sys.a2)
	}
	if !m.B.Equal(sys.b, 1e-5) {
		t.Errorf("B =\n%v\nwant\n%v", m.B, sys.b)
	}
}

func TestFitPiecewiseSkipsGaps(t *testing.T) {
	// Concatenate two independent trajectories of the same system with
	// a NaN gap between them. Each segment is internally consistent
	// with the true dynamics, but the jump across the gap is not: a
	// single equation spanning the gap would ruin exact recovery, so
	// exact recovery proves the fit is piecewise.
	rng := rand.New(rand.NewSource(33))
	sys := synthFirstOrder()
	d1 := sys.generate(rng, 200, 0)
	d2 := sys.generate(rng, 200, 0)
	n := 401
	temps := mat.NewDense(2, n)
	inputs := mat.NewDense(2, n)
	for k := 0; k < 200; k++ {
		temps.SetCol(k, d1.Temps.Col(k))
		inputs.SetCol(k, d1.Inputs.Col(k))
		temps.SetCol(201+k, d2.Temps.Col(k))
		inputs.SetCol(201+k, d2.Inputs.Col(k))
	}
	temps.Set(0, 200, math.NaN())
	temps.Set(1, 200, math.NaN())
	d := Data{Temps: temps, Inputs: inputs}
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !m.A.Equal(sys.a, 1e-6) || !m.B.Equal(sys.b, 1e-6) {
		t.Errorf("gap-separated fit not exact:\nA=\n%v\nwant\n%v", m.A, sys.a)
	}
}

func TestFitWindowsRestrictEquations(t *testing.T) {
	// Fitting on a window where the system follows different dynamics
	// must recover those dynamics, ignoring data outside the window.
	rng := rand.New(rand.NewSource(34))
	sys := synthFirstOrder()
	d := sys.generate(rng, 300, 0)
	// Overwrite the second half with another system's trajectory.
	sys2 := synthSystem{
		a: mat.NewDenseData(2, 2, []float64{0.5, 0, 0, 0.5}),
		b: sys.b,
	}
	d2 := sys2.generate(rng, 150, 0)
	for k := 0; k < 150; k++ {
		d.Temps.Set(0, 150+k, d2.Temps.At(0, k))
		d.Temps.Set(1, 150+k, d2.Temps.At(1, k))
		d.Inputs.Set(0, 150+k, d2.Inputs.At(0, k))
		d.Inputs.Set(1, 150+k, d2.Inputs.At(1, k))
	}
	m, err := Fit(d, []timeseries.Segment{{Start: 150, End: 300}}, FirstOrder, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !m.A.Equal(sys2.a, 1e-6) {
		t.Errorf("windowed fit A =\n%v\nwant\n%v", m.A, sys2.a)
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sys := synthFirstOrder()
	d := sys.generate(rng, 50, 0)
	if _, err := Fit(d, fullWindow(d), Order(3), Options{}); err == nil {
		t.Error("order 3 accepted")
	}
	if _, err := Fit(d, fullWindow(d), FirstOrder, Options{Ridge: -1}); err == nil {
		t.Error("negative ridge accepted")
	}
	if _, err := Fit(d, []timeseries.Segment{{Start: -1, End: 10}}, FirstOrder, Options{}); err == nil {
		t.Error("bad window accepted")
	}
	tiny := sys.generate(rng, 3, 0)
	if _, err := Fit(tiny, fullWindow(tiny), FirstOrder, Options{}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("tiny fit err = %v, want ErrInsufficientData", err)
	}
	bad := Data{Temps: mat.NewDense(2, 10), Inputs: mat.NewDense(1, 9)}
	if _, err := Fit(bad, nil, FirstOrder, Options{}); err == nil {
		t.Error("mismatched data accepted")
	}
}

func TestSimulateMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sys := synthSecondOrder()
	d := sys.generate(rng, 100, 0)
	m, err := Fit(d, fullWindow(d), SecondOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Free-run from step 1 (with step 0 as T(-1)) must track the
	// noise-free trajectory exactly.
	h := 50
	inputs := d.Inputs.Slice(0, 2, 1, 1+h)
	pred, err := m.Simulate(d.Temps.Col(1), d.Temps.Col(0), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < h; k++ {
		for i := 0; i < 2; i++ {
			want := d.Temps.At(i, 2+k)
			if math.Abs(pred.At(i, k)-want) > 1e-6 {
				t.Fatalf("pred[%d,%d] = %v, want %v", i, k, pred.At(i, k), want)
			}
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	sys := synthFirstOrder()
	d := sys.generate(rng, 50, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Simulate([]float64{1}, nil, mat.NewDense(2, 5)); err == nil {
		t.Error("short initial state accepted")
	}
	if _, err := m.Simulate([]float64{1, 2}, nil, mat.NewDense(3, 5)); err == nil {
		t.Error("wrong input rows accepted")
	}
	sys2 := synthSecondOrder()
	d2 := sys2.generate(rng, 80, 0)
	m2, err := Fit(d2, fullWindow(d2), SecondOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Simulate([]float64{1, 2}, nil, mat.NewDense(2, 5)); err == nil {
		t.Error("second-order simulate without T(-1) accepted")
	}
}

func TestEvaluateZeroErrorOnNoiseFreeData(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	sys := synthFirstOrder()
	d := sys.generate(rng, 300, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(m, d, []timeseries.Segment{{Start: 100, End: 200}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rms := range res.PerSensorRMS {
		if rms > 1e-6 {
			t.Errorf("sensor %d RMS = %v on noise-free self-data", i, rms)
		}
	}
	if res.Windows != 1 {
		t.Errorf("windows = %d, want 1", res.Windows)
	}
	if res.Steps != 99 { // 100-step window: one step consumed by the initial condition
		t.Errorf("steps = %d, want 99", res.Steps)
	}
}

func TestEvaluateHorizonTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	sys := synthFirstOrder()
	d := sys.generate(rng, 300, 0.01)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(m, d, []timeseries.Segment{{Start: 0, End: 200}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 {
		t.Errorf("steps = %d, want 10", res.Steps)
	}
}

func TestEvaluateNoWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	sys := synthFirstOrder()
	d := sys.generate(rng, 50, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(m, d, nil, 0); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestEvaluatePrefersLongerHorizonError(t *testing.T) {
	// With noisy identification, free-run error grows with horizon
	// (paper Fig. 5 bottom).
	rng := rand.New(rand.NewSource(41))
	sys := synthFirstOrder()
	train := sys.generate(rng, 400, 0.05)
	valid := sys.generate(rng, 400, 0.05)
	m, err := Fit(train, fullWindow(train), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shortRes, err := Evaluate(m, valid, fullWindow(valid), 5)
	if err != nil {
		t.Fatal(err)
	}
	longRes, err := Evaluate(m, valid, fullWindow(valid), 300)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortRes.RMSPercentile(90)
	l, _ := longRes.RMSPercentile(90)
	if l < s {
		t.Errorf("long-horizon RMS %v below short-horizon %v", l, s)
	}
}

func TestSecondOrderBeatsFirstOnSecondOrderTruth(t *testing.T) {
	// The paper's key Table I / Fig. 3 finding, on synthetic truth.
	rng := rand.New(rand.NewSource(42))
	sys := synthSecondOrder()
	train := sys.generate(rng, 500, 0.02)
	valid := sys.generate(rng, 500, 0.02)
	m1, err := Fit(train, fullWindow(train), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(train, fullWindow(train), SecondOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Evaluate(m1, valid, fullWindow(valid), 100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(m2, valid, fullWindow(valid), 100)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r1.RMSPercentile(90)
	p2, _ := r2.RMSPercentile(90)
	if p2 >= p1 {
		t.Errorf("second-order RMS %v not below first-order %v", p2, p1)
	}
}

// TestSpectralRadiusStable also pins the second-order estimate, which
// hands only the top block row [A+A2, -A2] to the kernel, to
// mat.SpectralRadius on the explicit companion [[A+A2, -A2], [I, 0]]:
// the same float64.
func TestSpectralRadiusStable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, order := range []Order{FirstOrder, SecondOrder} {
		sys := synthFirstOrder()
		if order == SecondOrder {
			sys = synthSecondOrder()
		}
		d := sys.generate(rng, 400, 0)
		m, err := Fit(d, fullWindow(d), order, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.SpectralRadius()
		if err != nil {
			t.Fatal(err)
		}
		if r >= 1.0 {
			t.Errorf("%v spectral radius %v >= 1 for stable truth", order, r)
		}
		if order != SecondOrder {
			continue
		}
		p := m.NumSensors()
		comp := mat.NewDense(2*p, 2*p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				comp.Set(i, j, m.A.At(i, j)+m.A2.At(i, j))
				comp.Set(i, j+p, -m.A2.At(i, j))
			}
			comp.Set(i+p, i, 1)
		}
		want, err := mat.SpectralRadius(comp, 300)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.spectralRadius(); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("second-order spectralRadius = %v (%x), err %v; explicit companion %v (%x)",
				got, math.Float64bits(got), err, want, math.Float64bits(want))
		}
	}
}

func TestPredictWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sys := synthFirstOrder()
	d := sys.generate(rng, 200, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, meas, first, err := PredictWindow(m, d, timeseries.Segment{Start: 50, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if first != 51 {
		t.Errorf("first step = %d, want 51", first)
	}
	pr, pc := pred.Dims()
	mr, mc := meas.Dims()
	if pr != 2 || mr != 2 || pc != mc || pc != 49 {
		t.Errorf("dims pred %dx%d meas %dx%d, want 2x49", pr, pc, mr, mc)
	}
	if !pred.Equal(meas, 1e-6) {
		t.Error("noise-free prediction should match measurement")
	}
	// Window with no valid run.
	gap := sys.generate(rng, 20, 0)
	for k := 5; k < 15; k++ {
		gap.Temps.Set(0, k, math.NaN())
	}
	if _, _, _, err := PredictWindow(m, gap, timeseries.Segment{Start: 5, End: 15}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestSelectSensors(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sys := synthFirstOrder()
	d := sys.generate(rng, 30, 0)
	sel := d.SelectSensors([]int{1})
	if sel.NumSensors() != 1 {
		t.Fatalf("selected sensors = %d, want 1", sel.NumSensors())
	}
	if sel.Temps.At(0, 7) != d.Temps.At(1, 7) {
		t.Error("selected row content wrong")
	}
	// Copy semantics.
	sel.Temps.Set(0, 0, -99)
	if d.Temps.At(1, 0) == -99 {
		t.Error("SelectSensors must copy")
	}
}

func TestOrderString(t *testing.T) {
	if FirstOrder.String() != "first-order" || SecondOrder.String() != "second-order" {
		t.Error("order names wrong")
	}
	if Order(5).String() == "" {
		t.Error("unknown order should format")
	}
}

func TestStabilizationProjectsUnstableFit(t *testing.T) {
	// An unstable truth system: one-step LS recovers it (rho > 1), and
	// the stability projection must pull the radius to the target.
	rng := rand.New(rand.NewSource(46))
	sys := synthSystem{
		a: mat.NewDenseData(2, 2, []float64{
			1.02, 0.00,
			0.00, 0.95,
		}),
		b: mat.NewDenseData(2, 2, []float64{0.1, 0, 0, 0.1}),
	}
	d := sys.generate(rng, 120, 0)
	plain, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rho, err := plain.SpectralRadius()
	if err != nil {
		t.Fatal(err)
	}
	if rho <= 1 {
		t.Fatalf("setup: plain fit radius %v, want > 1", rho)
	}
	stab, err := Fit(d, fullWindow(d), FirstOrder, Options{StabilityRadius: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	rho, err = stab.SpectralRadius()
	if err != nil {
		t.Fatal(err)
	}
	if rho > 0.99+1e-6 {
		t.Errorf("stabilized radius = %v, want <= 0.99", rho)
	}
	// B must have been refit, not zeroed.
	if stab.B.MaxAbs() == 0 {
		t.Error("B zeroed by stabilization")
	}
}

func TestStabilizationNoOpForStableFit(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sys := synthFirstOrder()
	d := sys.generate(rng, 300, 0)
	plain, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stab, err := Fit(d, fullWindow(d), FirstOrder, Options{StabilityRadius: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.A.Equal(stab.A, 1e-12) || !plain.B.Equal(stab.B, 1e-12) {
		t.Error("stabilization changed an already-stable model")
	}
}

func TestFitRejectsBadStabilityRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sys := synthFirstOrder()
	d := sys.generate(rng, 50, 0)
	if _, err := Fit(d, fullWindow(d), FirstOrder, Options{StabilityRadius: -0.5}); err == nil {
		t.Error("negative stability radius accepted")
	}
	if _, err := Fit(d, fullWindow(d), FirstOrder, Options{StabilityRadius: 2}); err == nil {
		t.Error("radius 2 accepted")
	}
}

func TestFitDecoupledStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	sys := synthSecondOrder()
	d := sys.generate(rng, 400, 0.01)
	m, err := FitDecoupled(d, fullWindow(d), SecondOrder, Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal dynamics must be exactly zero.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if i == j {
				continue
			}
			if m.A.At(i, j) != 0 || m.A2.At(i, j) != 0 {
				t.Errorf("off-diagonal dynamics at (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestCoupledBeatsDecoupledOnCoupledTruth(t *testing.T) {
	// The truth system has cross-sensor coupling; the coupled model
	// must predict better than per-sensor models.
	rng := rand.New(rand.NewSource(50))
	sys := synthFirstOrder() // off-diagonal A entries are nonzero
	train := sys.generate(rng, 500, 0.02)
	valid := sys.generate(rng, 500, 0.02)
	coupled, err := Fit(train, fullWindow(train), FirstOrder, Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	decoupled, err := FitDecoupled(train, fullWindow(train), FirstOrder, Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	evC, err := Evaluate(coupled, valid, fullWindow(valid), 100)
	if err != nil {
		t.Fatal(err)
	}
	evD, err := Evaluate(decoupled, valid, fullWindow(valid), 100)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := evC.RMSPercentile(90)
	pd, _ := evD.RMSPercentile(90)
	if pc >= pd {
		t.Errorf("coupled RMS %v not below decoupled %v", pc, pd)
	}
}

// Property: Simulate is linear in the inputs — for the same initial
// state, sim(x0, u1+u2) - sim(x0, u1) equals the zero-state response
// sim(0, u2).
func TestSimulateSuperpositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sys := synthSecondOrder()
	d := sys.generate(rng, 200, 0)
	m, err := Fit(d, fullWindow(d), SecondOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const h = 12
	for trial := 0; trial < 10; trial++ {
		x0 := []float64{18 + 4*rng.Float64(), 18 + 4*rng.Float64()}
		u1 := mat.NewDense(2, h)
		u2 := mat.NewDense(2, h)
		both := mat.NewDense(2, h)
		for i := 0; i < 2; i++ {
			for k := 0; k < h; k++ {
				a, b := rng.NormFloat64(), rng.NormFloat64()
				u1.Set(i, k, a)
				u2.Set(i, k, b)
				both.Set(i, k, a+b)
			}
		}
		zero := []float64{0, 0}
		sBoth, err := m.Simulate(x0, x0, both)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := m.Simulate(x0, x0, u1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m.Simulate(zero, zero, u2)
		if err != nil {
			t.Fatal(err)
		}
		if !sBoth.Equal(s1.Add(s2), 1e-8) {
			t.Fatalf("trial %d: superposition violated", trial)
		}
	}
}
