package sysid

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"auditherm/internal/mat"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, order := range []Order{FirstOrder, SecondOrder} {
		sys := synthFirstOrder()
		if order == SecondOrder {
			sys = synthSecondOrder()
		}
		d := sys.generate(rng, 300, 0.01)
		m, err := Fit(d, fullWindow(d), order, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		names := &ModelNames{Sensors: []string{"s1", "s2"}, Inputs: []string{"u1", "u2"}}
		var buf bytes.Buffer
		if err := m.Save(&buf, names); err != nil {
			t.Fatalf("%v save: %v", order, err)
		}
		got, gotNames, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v load: %v", order, err)
		}
		if got.Order != m.Order {
			t.Errorf("order %v, want %v", got.Order, m.Order)
		}
		if !got.A.Equal(m.A, 0) || !got.B.Equal(m.B, 0) {
			t.Errorf("%v: matrices changed in round trip", order)
		}
		if order == SecondOrder && !got.A2.Equal(m.A2, 0) {
			t.Errorf("A2 changed in round trip")
		}
		if gotNames == nil || gotNames.Sensors[1] != "s2" || gotNames.Inputs[0] != "u1" {
			t.Errorf("names = %+v", gotNames)
		}
		// The loaded model predicts identically.
		x := []float64{20, 21}
		u := []float64{1, 2}
		dt := []float64{0.1, -0.1}
		a, err := m.Predict(x, dt, u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Predict(x, dt, u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%v: prediction differs at %d", order, i)
			}
		}
	}
}

// TestSaveLoadRoundTripsSpectralRadius: the radius Fit records is the
// estimate the final dynamics give when computed afresh, and it
// survives Save/Load bit for bit — for fits the stabilization left
// alone and for fits it shrank.
func TestSaveLoadRoundTripsSpectralRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	unstable := synthSystem{
		a: mat.NewDenseData(2, 2, []float64{1.02, 0, 0, 0.95}),
		b: mat.NewDenseData(2, 2, []float64{0.1, 0, 0, 0.1}),
	}
	for _, c := range []struct {
		name   string
		sys    synthSystem
		order  Order
		shrunk bool
	}{
		{"stable first-order", synthFirstOrder(), FirstOrder, false},
		{"stable second-order", synthSecondOrder(), SecondOrder, false},
		{"shrunk first-order", unstable, FirstOrder, true},
		{"shrunk second-order", unstable, SecondOrder, true},
	} {
		d := c.sys.generate(rng, 300, 0.01)
		plain, err := Fit(d, fullWindow(d), c.order, Options{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := plain.SpectralRadius()
		if err != nil {
			t.Fatal(err)
		}
		if shrunk := raw > DefaultOptions().StabilityRadius; shrunk != c.shrunk {
			t.Fatalf("%s: setup: unstabilized radius %v", c.name, raw)
		}
		m, err := Fit(d, fullWindow(d), c.order, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := m.spectralRadius()
		if err != nil {
			t.Fatal(err)
		}
		if m.rho == 0 || m.rho != fresh {
			t.Fatalf("%s: Fit recorded radius %v, dynamics give %v", c.name, m.rho, fresh)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf, nil); err != nil {
			t.Fatal(err)
		}
		got, _, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rho, err := got.SpectralRadius()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rho) != math.Float64bits(m.rho) {
			t.Errorf("%s: loaded radius %v (%x), saved %v (%x)",
				c.name, rho, math.Float64bits(rho), m.rho, math.Float64bits(m.rho))
		}
	}
}

// TestLoadComputesMissingSpectralRadius: a model file written before
// the radius was persisted has no spectral_radius field. Load computes
// it once, so the model reports the real estimate, never 0.
func TestLoadComputesMissingSpectralRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	sys := synthSecondOrder()
	d := sys.generate(rng, 300, 0.01)
	m, err := Fit(d, fullWindow(d), SecondOrder, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if _, ok := file["spectral_radius"]; !ok {
		t.Fatal("Save wrote no spectral_radius field")
	}
	delete(file, "spectral_radius")
	old, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if got.rho != m.rho {
		t.Errorf("radius computed on load = %v, want %v", got.rho, m.rho)
	}

	// A hand-written file of the old format: T(k+1) = 0.9 T(k) +
	// 0.2 dT(k) has companion roots (1.1 ± sqrt(0.41))/2.
	lit := `{"version":1,"order":2,"sensors":1,"inputs":1,"a":[0.9],"a2":[0.2],"b":[0.1]}`
	got, _, err = Load(strings.NewReader(lit))
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.1 + math.Sqrt(0.41)) / 2; math.Abs(got.rho-want) > 1e-9 {
		t.Errorf("radius computed on load = %v, want %v", got.rho, want)
	}
}

// TestSaveOmitsInfiniteSpectralRadius: JSON has no +Inf, so a model
// whose estimate overflows is saved without the field and gets the
// estimate back from Load.
func TestSaveOmitsInfiniteSpectralRadius(t *testing.T) {
	h := 1e308
	m := &Model{
		Order: FirstOrder,
		A:     mat.NewDenseData(2, 2, []float64{h, h, h, h}),
		B:     mat.NewDenseData(2, 1, []float64{1, 1}),
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "spectral_radius") {
		t.Fatalf("saved an infinite radius: %s", buf.String())
	}
	got, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rho, err := got.SpectralRadius(); err != nil || !math.IsInf(rho, 1) {
		t.Fatalf("loaded radius %v, err %v; want +Inf", rho, err)
	}
}

func TestSaveValidatesNames(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	sys := synthFirstOrder()
	d := sys.generate(rng, 100, 0)
	m, err := Fit(d, fullWindow(d), FirstOrder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, &ModelNames{Sensors: []string{"only-one"}}); err == nil {
		t.Error("wrong sensor-name count accepted")
	}
	if err := m.Save(&buf, &ModelNames{Inputs: []string{"a", "b", "c"}}); err == nil {
		t.Error("wrong input-name count accepted")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "hello"},
		{"bad version", `{"version":99,"order":1,"sensors":1,"inputs":1,"a":[1],"b":[1]}`},
		{"bad order", `{"version":1,"order":3,"sensors":1,"inputs":1,"a":[1],"b":[1]}`},
		{"zero sensors", `{"version":1,"order":1,"sensors":0,"inputs":1,"a":[],"b":[]}`},
		{"short A", `{"version":1,"order":1,"sensors":2,"inputs":1,"a":[1],"b":[1,2]}`},
		{"short B", `{"version":1,"order":1,"sensors":1,"inputs":2,"a":[1],"b":[1]}`},
		{"spurious A2", `{"version":1,"order":1,"sensors":1,"inputs":1,"a":[1],"a2":[1],"b":[1]}`},
		{"missing A2", `{"version":1,"order":2,"sensors":1,"inputs":1,"a":[1],"b":[1]}`},
		{"negative radius", `{"version":1,"order":1,"sensors":1,"inputs":1,"a":[0.5],"b":[1],"spectral_radius":-0.5}`},
		{"bad names", `{"version":1,"order":1,"sensors":1,"inputs":1,"a":[1],"b":[1],"names":{"sensors":["a","b"]}}`},
		// A zero radius used to skip the computation, so A+A2 = +Inf
		// loaded and then failed to save.
		{"zero radius, non-finite companion", `{"version":1,"order":2,"sensors":1,"inputs":1,"a":[1e308],"a2":[1e308],"b":[1],"spectral_radius":0}`},
		// 2^32 x 2^32 wraps to 0 values: accepted as an empty model
		// with a radius, and a panic without one.
		{"overflowing dims", `{"version":1,"order":1,"sensors":4294967296,"inputs":4294967296,"a":[],"b":[],"spectral_radius":0.5}`},
		{"overflowing dims, no radius", `{"version":1,"order":1,"sensors":4294967296,"inputs":4294967296,"a":[],"b":[]}`},
	}
	for _, c := range cases {
		if _, _, err := Load(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The error names the dimensions, not their wrapped product.
	_, _, err := Load(strings.NewReader(cases[len(cases)-1].in))
	if err == nil || !strings.Contains(err.Error(), "want 4294967296x4294967296") {
		t.Errorf("overflowing dims: err = %v, want the dimensions named", err)
	}
}
