package sysid

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"auditherm/internal/mat"
	"auditherm/internal/obs"
	"auditherm/internal/par"
	"auditherm/internal/timeseries"
)

// withWorkers runs fn under a temporary process-wide default worker
// count, the pool size FitDecoupled fans out over.
func withWorkers(w int, fn func()) {
	prev := par.SetDefaultWorkers(w)
	defer par.SetDefaultWorkers(prev)
	fn()
}

// denseBitEqual fails the test unless got and want match element for
// element with zero tolerance (the parallel paths must be bit-for-bit
// identical to serial, not merely close).
func denseBitEqual(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, gr, gc, wr, wc)
	}
	for i := 0; i < gr; i++ {
		g, w := got.RawRow(i), want.RawRow(i)
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: (%d,%d) = %x, serial %x", name, i, j, g[j], w[j])
			}
		}
	}
}

// wideSynth builds a p-sensor chain system (each sensor couples to its
// neighbour) so decoupled fits have genuinely different per-sensor
// answers.
func wideSynth(p int) synthSystem {
	a := mat.NewDense(p, p)
	b := mat.NewDense(p, 2)
	for i := 0; i < p; i++ {
		a.Set(i, i, 0.88+0.01*float64(i%8))
		if i+1 < p {
			a.Set(i, i+1, 0.03)
			a.Set(i+1, i, 0.02)
		}
		b.Set(i, 0, 0.2+0.01*float64(i))
		b.Set(i, 1, 0.05)
	}
	return synthSystem{a: a, b: b}
}

// TestFitDecoupledParallelDeterminism: the per-sensor parallel fan-out
// must reproduce the serial result bit-for-bit at every worker count
// (ISSUE: determinism suite at workers in {1, 3, 8}).
func TestFitDecoupledParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sys := wideSynth(12)
	d := sys.generate(rng, 300, 0.01)
	// Punch a few per-sensor holes so validity masks differ by sensor.
	d.Temps.Set(3, 40, math.NaN())
	d.Temps.Set(7, 41, math.NaN())
	opts := Options{Ridge: 1e-6}
	for _, order := range []Order{FirstOrder, SecondOrder} {
		var ref *Model
		var err error
		withWorkers(1, func() { ref, err = FitDecoupled(d, fullWindow(d), order, opts) })
		if err != nil {
			t.Fatalf("%v serial: %v", order, err)
		}
		for _, w := range []int{1, 3, 8} {
			var got *Model
			withWorkers(w, func() { got, err = FitDecoupled(d, fullWindow(d), order, opts) })
			if err != nil {
				t.Fatalf("%v workers=%d: %v", order, w, err)
			}
			denseBitEqual(t, "A", got.A, ref.A)
			denseBitEqual(t, "B", got.B, ref.B)
			if order == SecondOrder {
				denseBitEqual(t, "A2", got.A2, ref.A2)
			}
		}
	}
}

// TestFitDecoupledDeterministicError: when several sensors fail, the
// reported error must be the lowest-index sensor's at any worker count
// (not whichever worker lost the race).
func TestFitDecoupledDeterministicError(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	sys := wideSynth(6)
	d := sys.generate(rng, 80, 0)
	// Ruin sensors 2 and 4 entirely: no valid equations.
	for _, i := range []int{2, 4} {
		for k := 0; k < 80; k++ {
			d.Temps.Set(i, k, math.NaN())
		}
	}
	for _, w := range []int{1, 3, 8} {
		var err error
		withWorkers(w, func() { _, err = FitDecoupled(d, fullWindow(d), FirstOrder, Options{}) })
		if !errors.Is(err, ErrInsufficientData) {
			t.Fatalf("workers=%d: err = %v, want ErrInsufficientData", w, err)
		}
		if !strings.Contains(err.Error(), "sensor 2") {
			t.Fatalf("workers=%d: err %q does not name lowest failing sensor 2", w, err)
		}
	}
}

// TestSelectSensorsSharesInputs pins the satellite fix: the view must
// share (not deep-clone) the m x N input matrix. Pre-fix this failed:
// every call copied the full input matrix.
func TestSelectSensorsSharesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sys := synthFirstOrder()
	d := sys.generate(rng, 50, 0)
	sel := d.SelectSensors([]int{1})
	if sel.Inputs != d.Inputs {
		t.Error("SelectSensors cloned the input matrix; want shared reference")
	}
}

// TestFitDecoupledAllocationDrop asserts the shared-inputs/shared-mask
// rework actually removed the per-sensor input clone: with N large and
// the fitted window tiny, the removed p x (m x N) clones and p full-mask
// recomputations dominated the old allocation profile. Pre-fix this
// exceeded ~12 MB for the sizes below; post-fix it stays well under.
func TestFitDecoupledAllocationDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const (
		p = 8
		n = 20000
	)
	sys := wideSynth(p)
	d := sys.generate(rng, n, 0.01)
	window := []timeseries.Segment{{Start: 0, End: 200}}
	opts := Options{Ridge: 1e-6}
	var before, after runtime.MemStats
	withWorkers(1, func() {
		// Warm up once (metric registration, pool init).
		if _, err := FitDecoupled(d, window, FirstOrder, opts); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := FitDecoupled(d, window, FirstOrder, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	})
	alloc := after.TotalAlloc - before.TotalAlloc
	// The pre-fix input clones alone cost p*m*n*8 = 8*2*20000*8 ≈ 2.6 MB
	// and the p full-mask recomputations another p*(p+m)*n temporaries;
	// the whole pre-fix run allocated > 5 MB. Post-fix the dominant
	// remaining costs are the per-sensor boolean masks (p*n bytes).
	const budget = 3 << 20
	if alloc > budget {
		t.Errorf("FitDecoupled allocated %d bytes, want <= %d (input clone not shared?)", alloc, budget)
	}
}

// TestStabilizeHugeEntriesProjected is the regression test for the
// silent unstable-model escape (ISSUE satellite): pre-fix,
// mat.SpectralRadius collapsed to 0 on huge-entry dynamics (its
// iterate normalized against an overflowed +Inf norm), so stabilize
// saw rho=0 <= target and returned nil with A untouched at ~1e308 —
// a wildly divergent model waved through as stable. Post-fix the radius
// is estimated correctly and the projection must land inside the
// target.
func TestStabilizeHugeEntriesProjected(t *testing.T) {
	h := 1e308
	// Near-defective huge A: Jordan-like [[h, h], [0, h]].
	m := &Model{
		Order: FirstOrder,
		A:     mat.NewDenseData(2, 2, []float64{h, h, 0, h}),
		B:     mat.NewDense(2, 2),
	}
	// Minimal consistent equation set for the B refit (4 equations, 2
	// inputs, 2 sensors).
	eqs := &equations{}
	for r := 0; r < 4; r++ {
		eqs.tempFeat = append(eqs.tempFeat, []float64{1 + 0.1*float64(r), 2 - 0.1*float64(r)})
		eqs.inputFeat = append(eqs.inputFeat, []float64{0.5 * float64(r), 1 - 0.2*float64(r)})
		eqs.targets = append(eqs.targets, []float64{0.3, 0.4})
	}
	opts := DefaultOptions()
	if err := m.stabilize(eqs, opts); err != nil {
		t.Fatalf("stabilize: %v", err)
	}
	rho, err := m.SpectralRadius()
	if err != nil {
		t.Fatal(err)
	}
	if rho > opts.StabilityRadius*(1+1e-6) {
		t.Errorf("post-stabilize radius = %v, want <= %v (pre-fix left A at ~1e308)", rho, opts.StabilityRadius)
	}
	if m.A.MaxAbs() >= 1 {
		t.Errorf("post-stabilize A max |entry| = %v, want < 1", m.A.MaxAbs())
	}
}

// TestStabilizeRejectsNonFinite: NaN dynamics must surface as an error
// from the stability check, not pass through (pre-fix, NaN lost every
// comparison inside power iteration and scored radius 0 = "stable").
func TestStabilizeRejectsNonFinite(t *testing.T) {
	m := &Model{
		Order: FirstOrder,
		A:     mat.NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 0.5}),
		B:     mat.NewDense(2, 2),
	}
	err := m.stabilize(&equations{}, DefaultOptions())
	if !errors.Is(err, mat.ErrNonFinite) {
		t.Fatalf("stabilize on NaN dynamics: err = %v, want mat.ErrNonFinite", err)
	}
}

// TestStabilizeStopsInsideSlack pins the shrink loop of a crawling
// second-order fit. Scaling A and A2 by s does not scale the companion
// radius by s (its identity rows stay), so each shrink lands a little
// above the target and the estimates close in on it from above. The
// loop must stop at the first estimate within stabilizeSlack of the
// target, record that estimate, and take exactly the estimates the
// replay below takes.
func TestStabilizeStopsInsideSlack(t *testing.T) {
	newModel := func() *Model {
		return &Model{
			Order: SecondOrder,
			A:     mat.NewDenseData(2, 2, []float64{0.56, -0.07, 0, 1.06}),
			A2:    mat.NewDenseData(2, 2, []float64{-0.28, -0.04, -0.07, -0.03}),
			B:     mat.NewDense(2, 2),
		}
	}
	opts := DefaultOptions()
	limit := opts.StabilityRadius * (1 + stabilizeSlack)

	// Replay: shrink until an estimate meets the acceptance predicate.
	replay := newModel()
	var rhos []float64
	for {
		rho, err := replay.spectralRadius()
		if err != nil {
			t.Fatal(err)
		}
		rhos = append(rhos, rho)
		if rho <= limit {
			break
		}
		s := opts.StabilityRadius / rho
		replay.A, replay.A2 = replay.A.Scale(s), replay.A2.Scale(s)
	}
	last := rhos[len(rhos)-1]
	if len(rhos) < 4 || last <= opts.StabilityRadius {
		t.Fatalf("setup: %d estimates ending at %v; want a crawl of at least 4 ending inside the slack above %v",
			len(rhos), last, opts.StabilityRadius)
	}

	eqs := &equations{}
	for r := 0; r < 4; r++ {
		eqs.tempFeat = append(eqs.tempFeat, []float64{1 + 0.1*float64(r), 2 - 0.1*float64(r), 0.1, -0.05 * float64(r)})
		eqs.inputFeat = append(eqs.inputFeat, []float64{0.5 * float64(r), 1 - 0.2*float64(r)})
		eqs.targets = append(eqs.targets, []float64{0.3, 0.4})
	}
	m := newModel()
	before := obs.Default.CounterValue("auditherm_mat_spectral_radius_estimates_total")
	if err := m.stabilize(eqs, opts); err != nil {
		t.Fatal(err)
	}
	taken := obs.Default.CounterValue("auditherm_mat_spectral_radius_estimates_total") - before
	if taken != int64(len(rhos)) {
		t.Errorf("stabilize took %d radius estimates, want %d", taken, len(rhos))
	}
	if m.rho != last {
		t.Errorf("recorded radius %v, want the first estimate inside the slack, %v", m.rho, last)
	}
	denseBitEqual(t, "A", m.A, replay.A)
	denseBitEqual(t, "A2", m.A2, replay.A2)
}
