package building

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

func TestNewSimulatorValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NX = 1 },
		func(c *Config) { c.Height = 0 },
		func(c *Config) { c.ThermalMassFactor = 0.5 },
		func(c *Config) { c.MixingUA = 0 },
		func(c *Config) { c.MixDriftPerDay = 0.9 },
		func(c *Config) { c.EnvelopeUA = -1 },
		func(c *Config) { c.NumOutlets = 0 },
		func(c *Config) { c.NumOutlets = 100 },
		func(c *Config) { c.PlenumMass = 0 },
		func(c *Config) { c.SeatStartX = 100 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewSimulator(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewSimulator(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestStepOccupantHeating drives the simulator with an occupied room
// and no cooling: seat-area temperatures must rise and the mean must
// stay physical.
func TestStepOccupantHeating(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		HVAC:      hvac.State{Flows: make([]float64, 4), SupplyTemp: 20},
		Occupants: 80,
		LightsOn:  true,
		Ambient:   25,
	}
	seat := Point{X: 12, Y: 7.5}
	before := s.TemperatureAt(seat)
	for i := 0; i < 60; i++ {
		if err := s.Step(time.Minute, in); err != nil {
			t.Fatal(err)
		}
	}
	after := s.TemperatureAt(seat)
	if after <= before {
		t.Errorf("seat temp %v -> %v did not rise under 80 occupants", before, after)
	}
	if mean := s.MeanTemp(); mean < 15 || mean > 45 {
		t.Errorf("mean temp %v outside physical range", mean)
	}
}

// TestStepCoolingFront verifies supply air cools the front of the room
// and creates the front-cool/back-warm gradient the paper observes.
func TestStepCoolingFront(t *testing.T) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.3, 0.3, 0.3}, SupplyTemp: 14},
		Occupants: 60,
		LightsOn:  true,
		Ambient:   28,
	}
	for i := 0; i < 120; i++ {
		if err := s.Step(time.Minute, in); err != nil {
			t.Fatal(err)
		}
	}
	front := s.TemperatureAt(Point{X: 1, Y: 7.5})
	back := s.TemperatureAt(Point{X: 18, Y: 7.5})
	if front >= back {
		t.Errorf("front %v not cooler than back %v under active cooling", front, back)
	}
}

func TestStepRejectsBadInputs(t *testing.T) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(0, Inputs{HVAC: hvac.State{Flows: make([]float64, 4)}}); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestAuditoriumSensorsLayout(t *testing.T) {
	specs := AuditoriumSensors()
	if len(specs) != 27 {
		t.Fatalf("sensor count = %d, want 27", len(specs))
	}
	thermostats := 0
	for _, sp := range specs {
		if sp.Thermostat {
			thermostats++
		}
		if sp.Pos.X < 0 || sp.Pos.X > RoomDepth || sp.Pos.Y < 0 || sp.Pos.Y > RoomWidth {
			t.Errorf("sensor %d at %+v outside the room", sp.ID, sp.Pos)
		}
	}
	if thermostats == 0 {
		t.Error("no thermostat sensors in the layout")
	}
}

// TestExpMemoMatchesRelax pins the auditorium's memoized cell update to
// relax, which office and residence still call: every call must return
// the same float64 for conductances the memo has seen, for more
// distinct conductances than it holds, and for the g <= 0 branch.
func TestExpMemoMatchesRelax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const sub, cellCap = 10.0, 2.6e5
	distinct := func(n int) []float64 {
		gs := make([]float64, n)
		for k := range gs {
			gs[k] = 100 + 5000*rng.Float64()
		}
		return gs
	}
	few, many := distinct(9), distinct(3*expMemoSize)
	var repeated, overflow, mixed []float64
	for k := 0; k < 20; k++ {
		repeated = append(repeated, few...)
		overflow = append(overflow, many...)
		mixed = append(mixed, few[k%len(few)], 0, math.Copysign(0, -1), -rng.Float64(), many[k])
	}
	for name, gs := range map[string][]float64{
		"repeated": repeated,
		"overflow": overflow,
		"mixed":    mixed,
	} {
		m := expMemo{sub: sub, cap: cellCap}
		for k, g := range gs {
			ti := 15 + 10*rng.Float64()
			gt := g * (15 + 10*rng.Float64())
			load := 2000 * rng.NormFloat64()
			got := m.relax(ti, g, gt, load)
			want := relax(ti, g, gt, load, sub, cellCap)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s call %d (g=%v): memo %v (%x), relax %v (%x)",
					name, k, g, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if name == "repeated" && m.n != len(few) {
			t.Errorf("repeated: memo holds %d conductances, want %d", m.n, len(few))
		}
		if name == "overflow" && m.n != expMemoSize {
			t.Errorf("overflow: memo holds %d conductances, want %d", m.n, expMemoSize)
		}
	}
}
