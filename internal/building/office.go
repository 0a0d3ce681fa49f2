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

	// links lists each zone's neighbours in edge order ix-1, ix+1,
	// iy-1, iy+1, zone i's at links[first[i]:first[i+1]].
	links   []link
	first   []int
	envUA   []float64 // per-zone conductance to ambient, W/K
	roofUA  float64   // per-zone roof conductance, W/K
	zoneCap float64   // J/K per zone

	// Per-Step terms, compiled by compile from the Step's inputs.
	colFlow   []float64 // scratch: per-column supply flow, kg/s
	zoneFlow  []float64 // per-zone supply flow, kg/s
	envT      []float64 // per-zone envelope term envUA*Ambient, W
	roofT     float64   // roof term roofUA*Ambient, W
	supplyT   []float64 // per-zone supply term flow*airCp*SupplyTemp, W
	zoneG     []float64 // per-zone total conductance, W/K
	zoneDecay []float64 // per-zone exp(-sub*g/zoneCap)
	load      float64   // occupant and lighting heat per zone, W
}

// link is one neighbour of a zone and the conductance between them.
type link struct {
	j  int     // neighbour zone
	ua float64 // W/K
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
		first:   make([]int, n+1),
		envUA:   make([]float64, n),

		colFlow:   make([]float64, cfg.ZY),
		zoneFlow:  make([]float64, n),
		envT:      make([]float64, n),
		supplyT:   make([]float64, n),
		zoneG:     make([]float64, n),
		zoneDecay: make([]float64, n),
	}
	airMass := cfg.Depth * cfg.Width * cfg.Height * airDensity // kg, unscaled
	o.zoneCap = airMass / float64(n) * cfg.ThermalMassFactor * airCp
	o.roofUA = cfg.RoofUA / float64(n)

	// The identified thermal network: base conductance times the
	// per-edge scale (uniform when UAScale is nil). Edges run X-edges
	// first, then Y-edges, each row-major.
	edgeUA := func(e int) float64 {
		s := 1.0
		if len(cfg.UAScale) > 0 {
			s = cfg.UAScale[e]
		}
		return cfg.InterZoneUA * s
	}
	xEdge := func(ix, iy int) int { return ix*o.zy + iy }
	yEdge := func(ix, iy int) int { return (o.zx-1)*o.zy + ix*(o.zy-1) + iy }

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
			i := ix*o.zy + iy
			if ix > 0 {
				o.links = append(o.links, link{i - o.zy, edgeUA(xEdge(ix-1, iy))})
			}
			if ix < o.zx-1 {
				o.links = append(o.links, link{i + o.zy, edgeUA(xEdge(ix, iy))})
			}
			if iy > 0 {
				o.links = append(o.links, link{i - 1, edgeUA(yEdge(ix, iy-1))})
			}
			if iy < o.zy-1 {
				o.links = append(o.links, link{i + 1, edgeUA(yEdge(ix, iy))})
			}
			o.first[i+1] = len(o.links)
			if ix == 0 || ix == o.zx-1 || iy == 0 || iy == o.zy-1 {
				o.envUA[i] = cfg.EnvelopeUA / float64(perimeter)
			}
		}
	}

	for i := range o.temps {
		o.temps[i] = cfg.InitialTemp
	}
	return o, nil
}

// NumZones returns the zone count.
func (o *Office) NumZones() int { return o.zx * o.zy }

// Step advances the office by dt under the given inputs.
func (o *Office) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	steps, sub := substeps(dt, o.cfg.MaxStep)
	o.compile(sub, in)
	for k := 0; k < steps; k++ {
		o.substep()
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(o.temps)))
	return nil
}

// compile computes every term that holds for all substeps of a Step
// under in, split into substeps of sub seconds: the zone flows, each
// zone's source terms, total conductance and decay factor, and the
// zone load.
func (o *Office) compile(sub float64, in Inputs) {
	cfg := &o.cfg
	n := len(o.temps)

	// Each VAV serves a contiguous band of Y columns; its flow splits
	// evenly over the zones in the band.
	clear(o.zoneFlow)
	if nf := len(in.HVAC.Flows); nf > 0 {
		clear(o.colFlow)
		for i, f := range in.HVAC.Flows {
			col := i * o.zy / nf
			if col >= o.zy {
				col = o.zy - 1
			}
			o.colFlow[col] += f
		}
		for i := range o.zoneFlow {
			o.zoneFlow[i] = o.colFlow[i%o.zy] / float64(o.zx)
		}
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(n)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(n)
	}
	o.load = occHeat + lightHeat

	// A zone's conductance sums, in this order, its edges, envelope,
	// roof and supply; Validate gives every zone an edge, so g > 0.
	o.roofT = o.roofUA * in.Ambient
	for i := range o.temps {
		var g float64
		for _, l := range o.links[o.first[i]:o.first[i+1]] {
			g += l.ua
		}
		o.envT[i] = 0
		if e := o.envUA[i]; e > 0 {
			g += e
			o.envT[i] = e * in.Ambient
		}
		g += o.roofUA
		o.supplyT[i] = 0
		if f := o.zoneFlow[i]; f > 0 {
			gs := f * airCp
			g += gs
			o.supplyT[i] = gs * in.HVAC.SupplyTemp
		}
		o.zoneG[i] = g
		o.zoneDecay[i] = math.Exp(-sub * g / o.zoneCap)
	}
}

// substep advances one internal step of the compiled Step: every zone
// relaxes toward the conductance-weighted equilibrium of its frozen
// neighborhood by its exact exponential decay. Its sum gt
// takes, from +0 and in this order, the neighbour terms, envelope,
// roof and supply; a term a zone lacks is +0, which changes nothing.
func (o *Office) substep() {
	old := o.temps
	next := o.scratch
	for i := range old {
		gt := 0.0
		for _, l := range o.links[o.first[i]:o.first[i+1]] {
			gt += l.ua * old[l.j]
		}
		gt += o.envT[i]
		gt += o.roofT
		gt += o.supplyT[i]
		next[i] = relaxBy(old[i], o.zoneG[i], gt, o.load, o.zoneDecay[i])
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
