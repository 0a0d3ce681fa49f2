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

// Office is the multi-zone office model. It satisfies Building.
type Office struct {
	cfg OfficeConfig

	zx, zy  int
	temps   []float64 // zone temperatures, row-major [ix*zy+iy]
	scratch []float64

	edgeUA  []float64 // per-edge conductance, W/K (X-edges then Y-edges)
	envUA   []float64 // per-zone conductance to ambient, W/K
	roofUA  float64   // per-zone roof conductance, W/K
	zoneCap float64   // J/K per zone

	zoneFlow []float64 // scratch: per-zone supply flow, kg/s
	colFlow  []float64 // scratch: per-column supply flow, kg/s
}

// NewOffice validates cfg and returns an office at the initial
// uniform state.
func NewOffice(cfg OfficeConfig) (*Office, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 10 * time.Second
	}
	n := cfg.ZX * cfg.ZY
	o := &Office{
		cfg:     cfg,
		zx:      cfg.ZX,
		zy:      cfg.ZY,
		temps:   make([]float64, n),
		scratch: make([]float64, n),
		envUA:   make([]float64, n),
		edgeUA:  make([]float64, cfg.NumEdges()),

		zoneFlow: make([]float64, n),
		colFlow:  make([]float64, cfg.ZY),
	}
	airMass := cfg.Depth * cfg.Width * cfg.Height * airDensity // kg, unscaled
	o.zoneCap = airMass / float64(n) * cfg.ThermalMassFactor * airCp
	o.roofUA = cfg.RoofUA / float64(n)

	// The identified thermal network: base conductance times the
	// per-edge scale (uniform when UAScale is nil).
	for e := range o.edgeUA {
		s := 1.0
		if len(cfg.UAScale) > 0 {
			s = cfg.UAScale[e]
		}
		o.edgeUA[e] = cfg.InterZoneUA * s
	}

	perimeter := 0
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			if ix == 0 || ix == o.zx-1 || iy == 0 || iy == o.zy-1 {
				perimeter++
			}
		}
	}
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			if ix == 0 || ix == o.zx-1 || iy == 0 || iy == o.zy-1 {
				o.envUA[ix*o.zy+iy] = cfg.EnvelopeUA / float64(perimeter)
			}
		}
	}

	for i := range o.temps {
		o.temps[i] = cfg.InitialTemp
	}
	return o, nil
}

// xEdge returns the edge index between (ix,iy) and (ix+1,iy).
func (o *Office) xEdge(ix, iy int) int { return ix*o.zy + iy }

// yEdge returns the edge index between (ix,iy) and (ix,iy+1).
func (o *Office) yEdge(ix, iy int) int { return (o.zx-1)*o.zy + ix*(o.zy-1) + iy }

// NumZones returns the zone count.
func (o *Office) NumZones() int { return o.zx * o.zy }

// Step advances the office by dt under the given inputs.
func (o *Office) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	total := dt.Seconds()
	steps := int(math.Ceil(total / o.cfg.MaxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	for k := 0; k < steps; k++ {
		o.substep(sub, in)
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(o.temps)))
	return nil
}

// substep advances one internal step of sub seconds: every zone
// relaxes toward the conductance-weighted equilibrium of its frozen
// neighborhood (identical integrator to the auditorium).
func (o *Office) substep(sub float64, in Inputs) {
	cfg := &o.cfg
	n := len(o.temps)

	// Each VAV serves a contiguous band of Y columns; its flow splits
	// evenly over the zones in the band.
	zoneFlow := o.zoneFlow
	for i := range zoneFlow {
		zoneFlow[i] = 0
	}
	if nf := len(in.HVAC.Flows); nf > 0 {
		colFlow := o.colFlow
		for i := range colFlow {
			colFlow[i] = 0
		}
		for i, f := range in.HVAC.Flows {
			col := i * o.zy / nf
			if col >= o.zy {
				col = o.zy - 1
			}
			colFlow[col] += f
		}
		for ix := 0; ix < o.zx; ix++ {
			for iy := 0; iy < o.zy; iy++ {
				zoneFlow[ix*o.zy+iy] = colFlow[iy] / float64(o.zx)
			}
		}
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(n)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(n)
	}

	old := o.temps
	next := o.scratch
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			i := ix*o.zy + iy
			ti := old[i]
			var g, gt float64
			edge := func(j int, ua float64) {
				g += ua
				gt += ua * old[j]
			}
			if ix > 0 {
				edge(i-o.zy, o.edgeUA[o.xEdge(ix-1, iy)])
			}
			if ix < o.zx-1 {
				edge(i+o.zy, o.edgeUA[o.xEdge(ix, iy)])
			}
			if iy > 0 {
				edge(i-1, o.edgeUA[o.yEdge(ix, iy-1)])
			}
			if iy < o.zy-1 {
				edge(i+1, o.edgeUA[o.yEdge(ix, iy)])
			}
			if e := o.envUA[i]; e > 0 {
				g += e
				gt += e * in.Ambient
			}
			g += o.roofUA
			gt += o.roofUA * in.Ambient

			if f := zoneFlow[i]; f > 0 {
				gs := f * airCp
				g += gs
				gt += gs * in.HVAC.SupplyTemp
			}

			load := occHeat + lightHeat
			next[i] = relax(ti, g, gt, load, sub, o.zoneCap)
		}
	}
	o.temps, o.scratch = next, old
}

// TemperatureAt returns the air temperature at a floor-plan point by
// bilinear interpolation between zone centers.
func (o *Office) TemperatureAt(p Point) float64 {
	return interpBilinear(o.temps, o.zx, o.zy, o.cfg.Depth, o.cfg.Width, p)
}

// TemperaturesAt evaluates TemperatureAt for every point in ps.
func (o *Office) TemperaturesAt(ps []Point, dst []float64) []float64 {
	if len(dst) != len(ps) {
		dst = make([]float64, len(ps))
	}
	for i, p := range ps {
		dst[i] = o.TemperatureAt(p)
	}
	return dst
}

// MeanTemp returns the average zone temperature.
func (o *Office) MeanTemp() float64 {
	var sum float64
	for _, t := range o.temps {
		sum += t
	}
	return sum / float64(len(o.temps))
}
