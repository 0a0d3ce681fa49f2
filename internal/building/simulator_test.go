package building

import (
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
