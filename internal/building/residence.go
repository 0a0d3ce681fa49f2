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
	if c.WindowFrac < 0 || c.WindowFrac > 1 {
		return fmt.Errorf("building: residence window fraction %v outside [0, 1]", c.WindowFrac)
	}
	if c.SolarPeak < 0 {
		return fmt.Errorf("building: residence solar peak %v must not be negative", c.SolarPeak)
	}
	if c.GlazingTransmittance <= 0 || c.GlazingTransmittance > 1 ||
		c.FrameFactor <= 0 || c.FrameFactor > 1 ||
		c.SolarAccess <= 0 || c.SolarAccess > 1 {
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

// Residence is the lumped R/C dwelling model. It satisfies Building.
type Residence struct {
	cfg ResidenceConfig

	depth, width float64
	temps        []float64 // node temperatures, front to back
	scratch      []float64

	nodeCap   float64 // J/K per node
	envUA     float64 // W/K to ambient per node
	interUA   float64 // W/K between adjacent nodes
	solarGain float64 // W total at peak irradiance

	elapsed float64 // seconds simulated (drives the solar diurnal phase)
}

// NewResidence validates cfg and returns a residence at the initial
// uniform state.
func NewResidence(cfg ResidenceConfig) (*Residence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 10 * time.Second
	}
	r := &Residence{
		cfg:     cfg,
		temps:   make([]float64, cfg.Zones),
		scratch: make([]float64, cfg.Zones),
	}
	r.depth, r.width = cfg.Dims()
	// The whole-house R/C pair splits evenly over the node chain:
	// R in K/kW means the envelope conductance is 1000/R W/K total,
	// C in kJ/K means 1000*C J/K total.
	r.nodeCap = cfg.C * 1000 / float64(cfg.Zones)
	r.envUA = 1000 / cfg.R / float64(cfg.Zones)
	r.interUA = cfg.InterZoneUA
	r.solarGain = cfg.WindowFrac * cfg.FloorArea * cfg.SolarPeak *
		cfg.GlazingTransmittance * cfg.FrameFactor * cfg.SolarAccess

	for i := range r.temps {
		r.temps[i] = cfg.InitialTemp
	}
	return r, nil
}

// NumZones returns the node count.
func (r *Residence) NumZones() int { return len(r.temps) }

// solarShape is the diurnal irradiance profile: a half-sine between
// 06:00 and 18:00 of the simulated day. Traces start at midnight, so
// the phase is just elapsed time modulo 24 h.
func (r *Residence) solarShape() float64 {
	h := math.Mod(r.elapsed/3600, 24)
	if h < 6 || h > 18 {
		return 0
	}
	return math.Sin(math.Pi * (h - 6) / 12)
}

// Step advances the residence by dt under the given inputs.
func (r *Residence) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	total := dt.Seconds()
	steps := int(math.Ceil(total / r.cfg.MaxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	for k := 0; k < steps; k++ {
		r.substep(sub, in)
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(r.temps)))
	return nil
}

// substep advances one internal step of sub seconds.
func (r *Residence) substep(sub float64, in Inputs) {
	cfg := &r.cfg
	n := len(r.temps)
	front := (n + 1) / 2 // living-half node count

	var totalFlow float64
	for _, f := range in.HVAC.Flows {
		totalFlow += f
	}
	nodeFlow := totalFlow / float64(n)

	// Solar lands mostly on the front (south-glazed) half; occupants
	// and lights live there too. The asymmetry is what keeps the node
	// chain from collapsing to one effective state.
	solar := r.solarGain * r.solarShape()
	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(front)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(front)
	}

	old := r.temps
	next := r.scratch
	for i := 0; i < n; i++ {
		ti := old[i]
		var g, gt float64
		if i > 0 {
			g += r.interUA
			gt += r.interUA * old[i-1]
		}
		if i < n-1 {
			g += r.interUA
			gt += r.interUA * old[i+1]
		}
		g += r.envUA
		gt += r.envUA * in.Ambient
		if nodeFlow > 0 {
			gs := nodeFlow * airCp
			g += gs
			gt += gs * in.HVAC.SupplyTemp
		}

		var load float64
		if i < front {
			load = occHeat + lightHeat + solar*0.7/float64(front)
		} else {
			load = solar * 0.3 / float64(n-front)
		}
		next[i] = relax(ti, g, gt, load, sub, r.nodeCap)
	}
	r.temps, r.scratch = next, old
	r.elapsed += sub
}

// TemperatureAt returns the air temperature at a floor-plan point by
// linear interpolation along the node chain (the Y coordinate is
// ignored: each node spans the full width).
func (r *Residence) TemperatureAt(p Point) float64 {
	n := len(r.temps)
	dx := r.depth / float64(n)
	fx := p.X/dx - 0.5
	fx = minf(maxf(fx, 0), float64(n-1))
	i0 := int(fx)
	i1 := i0 + 1
	if i1 > n-1 {
		i1 = n - 1
	}
	tx := fx - float64(i0)
	return (1-tx)*r.temps[i0] + tx*r.temps[i1]
}

// TemperaturesAt evaluates TemperatureAt for every point in ps.
func (r *Residence) TemperaturesAt(ps []Point, dst []float64) []float64 {
	if len(dst) != len(ps) {
		dst = make([]float64, len(ps))
	}
	for i, p := range ps {
		dst[i] = r.TemperatureAt(p)
	}
	return dst
}

// MeanTemp returns the average node temperature.
func (r *Residence) MeanTemp() float64 {
	var sum float64
	for _, t := range r.temps {
		sum += t
	}
	return sum / float64(len(r.temps))
}
