package building

import (
	"fmt"
	"math"
	"time"
)

// OfficeConfig parameterizes the multi-zone office archetype: a grid
// of thermally coupled zones whose inter-zone conductances form an
// identified thermal network in the style of Doddi et al.
// ("Data-driven identification of a thermal network in multi-zone
// building"). Each zone is a lumped air node; adjacent zones exchange
// heat through partition conductances, perimeter zones couple to
// ambient, and every zone sees the roof.
type OfficeConfig struct {
	// ZX, ZY is the zone grid (front-to-back x side-to-side). At least
	// two zones in total.
	ZX, ZY int
	// Depth, Width, Height are the floor-plate dimensions in meters.
	Depth, Width, Height float64
	// ThermalMassFactor scales the zone air mass to an effective
	// thermal mass including furniture, partitions and slab coupling.
	ThermalMassFactor float64
	// InterZoneUA is the base conductance between adjacent zones in
	// W/K before per-edge scaling.
	InterZoneUA float64
	// UAScale optionally carries one multiplier per inter-zone edge —
	// the identified thermal network. Edges are enumerated X-edges
	// first (between (ix,iy) and (ix+1,iy), row-major), then Y-edges
	// (between (ix,iy) and (ix,iy+1), row-major); NumEdges gives the
	// count. nil means a uniform network (all scales 1).
	UAScale []float64
	// EnvelopeUA is the total conductance to ambient in W/K, shared
	// equally by the perimeter zones.
	EnvelopeUA float64
	// RoofUA is the total roof conductance to ambient in W/K, shared
	// equally by all zones.
	RoofUA float64
	// OccupantHeat is the sensible heat per person in W; occupants
	// spread uniformly over all zones.
	OccupantHeat float64
	// LightingPower is the total lighting + equipment heat in W when
	// lights are on, spread over all zones.
	LightingPower float64
	// InitialTemp is the uniform starting temperature in degC.
	InitialTemp float64
	// MaxStep caps the internal integration substep (default 10 s).
	MaxStep time.Duration
}

// DefaultOfficeConfig returns a tuned 3x3-zone open-plan office floor.
func DefaultOfficeConfig() OfficeConfig {
	return OfficeConfig{
		ZX:                3,
		ZY:                3,
		Depth:             30,
		Width:             20,
		Height:            3,
		ThermalMassFactor: 6,
		InterZoneUA:       300,
		EnvelopeUA:        400,
		RoofUA:            150,
		OccupantHeat:      100,
		LightingPower:     4000,
		InitialTemp:       21,
		MaxStep:           10 * time.Second,
	}
}

// NumEdges returns the inter-zone edge count for the configured grid.
func (c OfficeConfig) NumEdges() int {
	if c.ZX < 1 || c.ZY < 1 {
		return 0
	}
	return (c.ZX-1)*c.ZY + c.ZX*(c.ZY-1)
}

// Validate checks every field against its physical range.
func (c OfficeConfig) Validate() error {
	// Bounding the sides first keeps ZX*ZY from wrapping.
	if c.ZX < 1 || c.ZY < 1 || c.ZX > maxGridSide || c.ZY > maxGridSide {
		return fmt.Errorf("building: office zone grid %dx%d must be 1 to %d zones a side", c.ZX, c.ZY, maxGridSide)
	}
	if n := c.ZX * c.ZY; n < 2 || n > maxZones {
		return fmt.Errorf("building: office zone grid %dx%d must hold 2 to %d zones", c.ZX, c.ZY, maxZones)
	}
	if c.Depth <= 0 || c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("building: office dimensions %vx%vx%v must be positive", c.Depth, c.Width, c.Height)
	}
	if c.ThermalMassFactor < 1 {
		return fmt.Errorf("building: office thermal mass factor %v must be >= 1", c.ThermalMassFactor)
	}
	if c.InterZoneUA < minConductance {
		return fmt.Errorf("building: office inter-zone conductance %v must be at least %g", c.InterZoneUA, minConductance)
	}
	if n := len(c.UAScale); n != 0 && n != c.NumEdges() {
		return fmt.Errorf("building: office UA scale has %d entries for %d edges", n, c.NumEdges())
	}
	for i, s := range c.UAScale {
		if !(s >= minConductance && s <= maxMagnitude) {
			return fmt.Errorf("building: office UA scale[%d] = %v outside [%g, %g]", i, s, minConductance, maxMagnitude)
		}
	}
	if c.EnvelopeUA < 0 || c.RoofUA < 0 {
		return fmt.Errorf("building: office conductances must be non-negative (envelope %v, roof %v)",
			c.EnvelopeUA, c.RoofUA)
	}
	if err := checkMaxStep("office ", c.MaxStep); err != nil {
		return err
	}
	return checkMagnitudes("office ",
		param{"depth", c.Depth}, param{"width", c.Width}, param{"height", c.Height},
		param{"thermal mass factor", c.ThermalMassFactor}, param{"inter-zone conductance", c.InterZoneUA},
		param{"envelope conductance", c.EnvelopeUA}, param{"roof conductance", c.RoofUA},
		param{"occupant heat", c.OccupantHeat}, param{"lighting power", c.LightingPower},
		param{"initial temperature", c.InitialTemp},
	)
}

// Sensors returns the office deployment: one wireless sensor at each
// zone center plus two wired thermostats on the front wall.
func (c OfficeConfig) Sensors() []SensorSpec {
	n := c.ZX * c.ZY
	specs := make([]SensorSpec, 0, n+2)
	dx := c.Depth / float64(c.ZX)
	dy := c.Width / float64(c.ZY)
	id := 1
	for ix := 0; ix < c.ZX; ix++ {
		for iy := 0; iy < c.ZY; iy++ {
			specs = append(specs, SensorSpec{
				ID:  id,
				Pos: Point{X: (float64(ix) + 0.5) * dx, Y: (float64(iy) + 0.5) * dy},
			})
			id++
		}
	}
	specs = append(specs,
		SensorSpec{ID: id, Pos: Point{X: 0.6, Y: c.Width / 3}, Thermostat: true},
		SensorSpec{ID: id + 1, Pos: Point{X: 0.6, Y: 2 * c.Width / 3}, Thermostat: true},
	)
	return specs
}

// Metadata summarizes the office for fleet reports; design occupancy
// follows a 12 m^2-per-person open-plan density.
func (c OfficeConfig) Metadata() Metadata {
	area := c.Depth * c.Width
	return Metadata{
		Archetype:       ArchetypeOffice,
		FloorArea:       area,
		Zones:           c.ZX * c.ZY,
		Sensors:         c.ZX*c.ZY + 2,
		DesignOccupancy: int(math.Round(area / 12)),
	}
}

// network returns the office as a ZX×ZY zone network: the identified
// per-edge conductances, the envelope shared by the perimeter zones,
// and the roof, occupants and lights by every zone. c must be valid.
func (c OfficeConfig) network() network {
	n := c.ZX * c.ZY
	perimeter := n - max(c.ZX-2, 0)*max(c.ZY-2, 0)
	envUA := make([]float64, n)
	for ix := 0; ix < c.ZX; ix++ {
		for iy := 0; iy < c.ZY; iy++ {
			if ix == 0 || ix == c.ZX-1 || iy == 0 || iy == c.ZY-1 {
				envUA[ix*c.ZY+iy] = c.EnvelopeUA / float64(perimeter)
			}
		}
	}
	airMass := c.Depth * c.Width * c.Height * airDensity // kg, unscaled
	return network{
		field:         field{nx: c.ZX, ny: c.ZY, depth: c.Depth, width: c.Width},
		zoneCap:       airMass / float64(n) * c.ThermalMassFactor * airCp,
		interUA:       c.InterZoneUA,
		uaScale:       c.UAScale,
		envUA:         envUA,
		roofUA:        c.RoofUA / float64(n),
		occupied:      n,
		occupantHeat:  c.OccupantHeat,
		lightingPower: c.LightingPower,
		initialTemp:   c.InitialTemp,
		maxStep:       c.MaxStep,
	}
}
