package building

import (
	"math"
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

// TestStepRejectsBadInputs: every archetype's Step rejects a bad dt or
// input before it touches the state, so a non-finite weather, supply or
// flow value fails at the boundary instead of turning the room to NaN.
func TestStepRejectsBadInputs(t *testing.T) {
	good := func() Inputs {
		return Inputs{
			HVAC:      hvac.State{Flows: []float64{0.2, 0.2, 0.2, 0.2}, SupplyTemp: 14},
			Occupants: 10,
			LightsOn:  true,
			Ambient:   20,
		}
	}
	cases := []struct {
		name   string
		dt     time.Duration
		mutate func(*Inputs)
	}{
		{"zero dt", 0, func(*Inputs) {}},
		{"negative occupants", time.Minute, func(in *Inputs) { in.Occupants = -1 }},
		{"negative flow", time.Minute, func(in *Inputs) { in.HVAC.Flows[1] = -0.1 }},
		{"NaN flow", time.Minute, func(in *Inputs) { in.HVAC.Flows[1] = math.NaN() }},
		{"infinite flow", time.Minute, func(in *Inputs) { in.HVAC.Flows[1] = math.Inf(1) }},
		{"NaN ambient", time.Minute, func(in *Inputs) { in.Ambient = math.NaN() }},
		{"infinite ambient", time.Minute, func(in *Inputs) { in.Ambient = math.Inf(1) }},
		{"negative infinite ambient", time.Minute, func(in *Inputs) { in.Ambient = math.Inf(-1) }},
		{"NaN supply", time.Minute, func(in *Inputs) { in.HVAC.SupplyTemp = math.NaN() }},
		{"infinite supply", time.Minute, func(in *Inputs) { in.HVAC.SupplyTemp = math.Inf(1) }},
	}
	for _, name := range Archetypes() {
		for _, tc := range cases {
			sp, err := DefaultSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sp.New()
			if err != nil {
				t.Fatal(err)
			}
			before := b.MeanTemp()
			in := good()
			tc.mutate(&in)
			if err := b.Step(tc.dt, in); err == nil {
				t.Errorf("%s, %s: accepted", name, tc.name)
			}
			if after := b.MeanTemp(); math.Float64bits(after) != math.Float64bits(before) {
				t.Errorf("%s, %s: mean temperature %v -> %v after a rejected step", name, tc.name, before, after)
			}
		}
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
