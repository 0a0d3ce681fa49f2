package building

import (
	"fmt"
	"math"
	"time"
)

// ResidenceConfig parameterizes the lumped R/C residence archetype,
// after the cooling-demand ThermalModel referenced in SNIPPETS.md: a
// whole-envelope resistance R (K/kW), a whole-house capacitance C
// (kJ/K), solar gains through the glazing, and occupancy scaled from
// floor area by the SAP formula. The single R/C pair is split over a
// short chain of air nodes (front "living" rooms to back bedrooms) so
// the building still has a spatial field for sensors to disagree
// about.
type ResidenceConfig struct {
	// FloorArea is the conditioned floor area in m^2.
	FloorArea float64
	// Zones is the number of lumped air nodes in the front-to-back
	// chain (at least 2).
	Zones int
	// R is the whole-envelope thermal resistance in K/kW.
	R float64
	// C is the whole-house thermal capacitance in kJ/K.
	C float64
	// InterZoneUA is the conductance between adjacent nodes in W/K
	// (internal doorways and partition walls).
	InterZoneUA float64
	// WindowFrac is the glazed area as a fraction of floor area.
	WindowFrac float64
	// SolarPeak is the peak irradiance on the glazing in W/m^2 at
	// solar noon on the simulated day.
	SolarPeak float64
	// GlazingTransmittance, FrameFactor and SolarAccess scale the
	// incident irradiance to the heat that actually enters (SAP-style
	// defaults 0.76 / 0.7 / 0.9).
	GlazingTransmittance float64
	FrameFactor          float64
	SolarAccess          float64
	// OccupantHeat is the sensible heat per person in W; occupants
	// land in the front (living) half of the chain.
	OccupantHeat float64
	// LightingPower is the total lighting heat in W when lights are on.
	LightingPower float64
	// InitialTemp is the uniform starting temperature in degC.
	InitialTemp float64
	// MaxStep caps the internal integration substep (default 10 s).
	MaxStep time.Duration
}

// DefaultResidenceConfig returns a tuned 120 m^2 dwelling split over
// four nodes.
func DefaultResidenceConfig() ResidenceConfig {
	return ResidenceConfig{
		FloorArea:            120,
		Zones:                4,
		R:                    8,
		C:                    12000,
		InterZoneUA:          150,
		WindowFrac:           0.2,
		SolarPeak:            450,
		GlazingTransmittance: 0.76,
		FrameFactor:          0.7,
		SolarAccess:          0.9,
		OccupantHeat:         90,
		LightingPower:        300,
		InitialTemp:          20,
		MaxStep:              10 * time.Second,
	}
}

// Validate checks every field against its physical range.
func (c ResidenceConfig) Validate() error {
	if c.FloorArea <= 0 {
		return fmt.Errorf("building: residence floor area %v must be positive", c.FloorArea)
	}
	if c.Zones < 2 || c.Zones > maxZones {
		return fmt.Errorf("building: residence needs 2 to %d zones, got %d", maxZones, c.Zones)
	}
	if c.R < minConductance {
		return fmt.Errorf("building: residence envelope resistance %v K/kW must be at least %g", c.R, minConductance)
	}
	if c.C <= 0 {
		return fmt.Errorf("building: residence capacitance %v kJ/K must be positive", c.C)
	}
	if c.InterZoneUA < minConductance {
		return fmt.Errorf("building: residence inter-zone conductance %v must be at least %g", c.InterZoneUA, minConductance)
	}
	if !(0 <= c.WindowFrac && c.WindowFrac <= 1) {
		return fmt.Errorf("building: residence window fraction %v outside [0, 1]", c.WindowFrac)
	}
	if c.SolarPeak < 0 {
		return fmt.Errorf("building: residence solar peak %v must not be negative", c.SolarPeak)
	}
	if !(0 < c.GlazingTransmittance && c.GlazingTransmittance <= 1) ||
		!(0 < c.FrameFactor && c.FrameFactor <= 1) ||
		!(0 < c.SolarAccess && c.SolarAccess <= 1) {
		return fmt.Errorf("building: residence glazing factors (%v, %v, %v) must be in (0, 1]",
			c.GlazingTransmittance, c.FrameFactor, c.SolarAccess)
	}
	if err := checkMaxStep("residence ", c.MaxStep); err != nil {
		return err
	}
	return checkMagnitudes("residence ",
		param{"floor area", c.FloorArea}, param{"envelope resistance", c.R}, param{"capacitance", c.C},
		param{"inter-zone conductance", c.InterZoneUA}, param{"solar peak", c.SolarPeak},
		param{"occupant heat", c.OccupantHeat}, param{"lighting power", c.LightingPower},
		param{"initial temperature", c.InitialTemp},
	)
}

// Dims returns the floor-plan extent: a 2:1 rectangle with the
// configured area, depth along X.
func (c ResidenceConfig) Dims() (depth, width float64) {
	width = math.Sqrt(c.FloorArea / 2)
	return 2 * width, width
}

// Sensors returns the residence deployment: one wireless sensor at
// each node center plus the hallway thermostat near the front door.
func (c ResidenceConfig) Sensors() []SensorSpec {
	depth, width := c.Dims()
	dx := depth / float64(c.Zones)
	specs := make([]SensorSpec, 0, c.Zones+1)
	for i := 0; i < c.Zones; i++ {
		specs = append(specs, SensorSpec{
			ID:  i + 1,
			Pos: Point{X: (float64(i) + 0.5) * dx, Y: width / 2},
		})
	}
	specs = append(specs, SensorSpec{
		ID:         c.Zones + 1,
		Pos:        Point{X: 0.4, Y: width / 2},
		Thermostat: true,
	})
	return specs
}

// Occupancy returns the SAP expected occupancy for the floor area
// (the cooling_demand formula referenced in SNIPPETS.md).
func (c ResidenceConfig) Occupancy() float64 {
	fa := c.FloorArea
	if fa <= 13.9 {
		return 1
	}
	d := fa - 13.9
	return 1 + 1.76*(1-math.Exp(-0.000349*d*d)) + 0.0013*d
}

// Metadata summarizes the residence for fleet reports.
func (c ResidenceConfig) Metadata() Metadata {
	return Metadata{
		Archetype:       ArchetypeResidence,
		FloorArea:       c.FloorArea,
		Zones:           c.Zones,
		Sensors:         c.Zones + 1,
		DesignOccupancy: int(math.Round(c.Occupancy())),
	}
}

// network returns the residence as a Zones×1 zone network: the
// whole-house R (K/kW) and C (kJ/K) split evenly over the nodes, a
// uniform InterZoneUA, no roof, occupants and lights in the front
// (living) half, and the solar gain through the glazing. c must be
// valid.
func (c ResidenceConfig) network() network {
	depth, width := c.Dims()
	envUA := make([]float64, c.Zones)
	for i := range envUA {
		envUA[i] = 1000 / c.R / float64(c.Zones)
	}
	return network{
		field:         field{nx: c.Zones, ny: 1, depth: depth, width: width},
		zoneCap:       c.C * 1000 / float64(c.Zones),
		interUA:       c.InterZoneUA,
		envUA:         envUA,
		occupied:      (c.Zones + 1) / 2,
		occupantHeat:  c.OccupantHeat,
		lightingPower: c.LightingPower,
		solarGain: c.WindowFrac * c.FloorArea * c.SolarPeak *
			c.GlazingTransmittance * c.FrameFactor * c.SolarAccess,
		initialTemp: c.InitialTemp,
		maxStep:     c.MaxStep,
	}
}
