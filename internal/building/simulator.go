package building

import (
	"fmt"
	"math"
	"time"

	"auditherm/internal/hvac"
)

// Physical constants.
const (
	airDensity = 1.204 // kg/m^3 at ~20 degC
	airCp      = hvac.AirCp
)

// Config parameterizes the zonal simulator. The defaults reproduce the
// paper's room; every field is physical, so alternative buildings are a
// matter of retuning rather than re-coding.
type Config struct {
	// NX, NY is the zone grid resolution (front-to-back x side-to-side).
	NX, NY int
	// Height is the ceiling height in meters.
	Height float64
	// ThermalMassFactor scales the air mass to an effective thermal
	// mass including furniture, finishes and the bounding slab layer.
	ThermalMassFactor float64
	// MixingUA is the inter-cell mixing conductance between adjacent
	// cells in W/K (bulk air exchange driven by diffusers and buoyancy).
	MixingUA float64
	// MixDriftPerDay is the fractional daily growth of MixingUA: the
	// seasonal non-stationarity that makes very long training horizons
	// over-fit (paper Fig. 5). 0.005 is +0.5%/day compounded.
	MixDriftPerDay float64
	// EnvelopeUA is the total conductance to ambient air in W/K,
	// distributed over the perimeter cells (the room is a basement, so
	// this is small: light wells, doors and the above-grade wall strip).
	EnvelopeUA float64
	// GroundUA is the total conductance to the surrounding earth in
	// W/K, distributed over all cells.
	GroundUA float64
	// GroundTemp is the slab/earth temperature in degC at simulation
	// start.
	GroundTemp float64
	// GroundTempDriftPerDay is the seasonal slab warming in degC/day
	// (the basement slab follows the season with a long lag). Together
	// with MixDriftPerDay this is the non-stationarity that makes very
	// long training horizons over-fit (paper Fig. 5).
	GroundTempDriftPerDay float64
	// OccupantHeat is the sensible heat per person in W.
	OccupantHeat float64
	// SeatStartX is the front-to-back coordinate where seating begins;
	// occupant heat lands uniformly on cells behind it.
	SeatStartX float64
	// SeatMixBoost multiplies the mixing conductance between two
	// seating cells: occupant plumes and the ceiling diffusers churn
	// the seating block into a near-uniform zone, while the front
	// (stage/outlet) cells keep their own microclimate. Must be >= 1
	// (Validate rejects smaller values).
	SeatMixBoost float64
	// StageMixFactor multiplies the mixing conductance on edges that
	// cross the stage/seating boundary. The supply jets wash the stage
	// and short-circuit toward the front returns, so the stage
	// microclimate couples only weakly into the seating block; this is
	// what makes the front sensor column track the supply plenum while
	// the seats track the occupant load (the correlation structure
	// behind the paper's Fig. 6 clusters). Must be in (0, 1]
	// (Validate rejects anything else).
	StageMixFactor float64
	// LightingPower is the total lighting heat in W when lights are on.
	LightingPower float64
	// TurbulencePower is the amplitude (W, total over the room) of the
	// deterministic thermal oscillation modeling diffuser turbulence
	// and buoyancy plumes: a real room never sits perfectly still,
	// which is what keeps report-on-change sensors chatting. Zero
	// disables it.
	TurbulencePower float64
	// TurbulencePeriod is the oscillation period; zero selects 37
	// minutes (incommensurate with the sampling grids).
	TurbulencePeriod time.Duration
	// NumOutlets is the number of supply outlets on the front wall (the
	// paper's room has 2, fed by 4 VAVs).
	NumOutlets int
	// PlenumMass is the air-equivalent mass of each outlet's supply
	// mixing node in kg. Supply air reaches the room only through this
	// first-order lag, which is what makes the measured response
	// greater than first order.
	PlenumMass float64
	// InitialTemp is the uniform starting temperature in degC.
	InitialTemp float64
	// MaxStep caps the internal integration substep; Step subdivides
	// larger dt values so physics fidelity does not depend on the
	// caller's stepping.
	MaxStep time.Duration
}

// DefaultConfig returns the tuned auditorium: ~90 seats, 20x15x3.5 m,
// 2 front outlets fed by 4 VAVs.
func DefaultConfig() Config {
	return Config{
		NX:                    10,
		NY:                    6,
		Height:                3.5,
		ThermalMassFactor:     3.5,
		MixingUA:              1200,
		MixDriftPerDay:        0.005,
		EnvelopeUA:            50,
		GroundUA:              90,
		GroundTemp:            16,
		GroundTempDriftPerDay: 0.012,
		OccupantHeat:          90,
		SeatStartX:            4,
		SeatMixBoost:          3,
		StageMixFactor:        0.2,
		TurbulencePower:       5000,
		TurbulencePeriod:      37 * time.Minute,
		LightingPower:         1200,
		NumOutlets:            2,
		PlenumMass:            135,
		InitialTemp:           20,
		MaxStep:               10 * time.Second,
	}
}

// Inputs drives one simulation step.
type Inputs struct {
	// HVAC is the plant operating point (per-VAV flows, supply temp).
	HVAC hvac.State
	// Occupants is the current ground-truth occupant count.
	Occupants int
	// LightsOn reports whether the room lighting is on.
	LightsOn bool
	// Ambient is the outdoor air temperature in degC.
	Ambient float64
}

// checkStep is the input check every archetype's Step makes before it
// touches its state: dt must be positive, the occupant count
// non-negative, every VAV flow finite and non-negative, and the ambient
// and supply temperatures finite. A non-finite input would otherwise
// spread through the substep into every cell.
func checkStep(dt time.Duration, in Inputs) error {
	if dt <= 0 {
		return fmt.Errorf("building: step dt %v must be positive", dt)
	}
	if in.Occupants < 0 {
		return fmt.Errorf("building: negative occupant count %d", in.Occupants)
	}
	for _, f := range in.HVAC.Flows {
		if !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("building: invalid VAV flow %v", f)
		}
	}
	if math.IsNaN(in.Ambient) || math.IsInf(in.Ambient, 0) {
		return fmt.Errorf("building: ambient temperature %v is not finite", in.Ambient)
	}
	if math.IsNaN(in.HVAC.SupplyTemp) || math.IsInf(in.HVAC.SupplyTemp, 0) {
		return fmt.Errorf("building: supply temperature %v is not finite", in.HVAC.SupplyTemp)
	}
	return nil
}

// Simulator is the zonal auditorium model. It is advanced by Step and
// probed with TemperatureAt.
type Simulator struct {
	cfg Config

	nx, ny  int
	temps   []float64 // cell temperatures, row-major [ix*ny+iy]
	scratch []float64
	outlet  []float64 // per-outlet plenum temperatures

	// Static parameters, compiled by NewSimulator.
	cellCap        float64     // J/K per cell
	groundUA       float64     // W/K to ground per cell
	seats          int         // cells receiving occupant heat
	logDrift       float64     // math.Log1p(MixDriftPerDay)
	frontPerOutlet []float64   // front cells fed by each outlet
	classes        []cellTerms // each conductance class's terms
	groups         []cellGroup // the cells of each (class, load) pair

	// Per-substep scratch, reused so a Step allocates nothing.
	flows      []float64 // per-outlet supply flow, kg/s
	supplyUA   []float64 // per-outlet front-cell supply conductance, W/K
	classG     []float64 // per-class total conductance, W/K
	classDecay []float64 // per-class exp(-sub*g/cellCap)

	elapsed float64 // seconds simulated so far (drives seasonal drift)
}

// mixKind selects an edge's mixing conductance: the base MixingUA, the
// boosted one between two seating cells (occupant-churned zone), or
// the attenuated one across the stage/seating boundary (the supply jets
// short-circuit to the stage returns, so the stage microclimate couples
// only weakly into the seats).
type mixKind uint8

const (
	mixBase mixKind = iota
	mixSeat
	mixStage
)

// cellTerms are the terms a cell's total conductance g adds, in order.
// Cells with equal terms form one conductance class.
type cellTerms struct {
	kind   [4]mixKind // each edge's mixing conductance
	edges  int        // neighbours in use
	env    float64    // W/K to ambient (perimeter cells)
	outlet int        // supply outlet feeding a front cell; -1 elsewhere
}

// cellGroup is the compiled update of every cell in one conductance
// class with one heat load. Those cells share every coefficient and
// constant term of the update, so a substep computes them once per
// group and then sums only each cell's neighbour temperatures.
type cellGroup struct {
	class int // the cells' conductance class, an index into classes
	// load picks the cells' heat load: 2 if they are seats (occupant
	// heat) plus 1 if they are in the return-plume half (5*ix >= 2*nx).
	load  int
	cells []int32 // the group's cells, row-major order
	// nbr holds each cell's neighbours in edge order ix-1, ix+1, iy-1,
	// iy+1: the class's edge count per cell, cells in order.
	nbr []int32
}

// NewSimulator validates cfg and returns a simulator at the initial
// uniform state.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 10 * time.Second
	}

	nx, ny := cfg.NX, cfg.NY
	n := nx * ny
	s := &Simulator{
		cfg:            cfg,
		nx:             nx,
		ny:             ny,
		temps:          make([]float64, n),
		scratch:        make([]float64, n),
		outlet:         make([]float64, cfg.NumOutlets),
		logDrift:       math.Log1p(cfg.MixDriftPerDay),
		frontPerOutlet: make([]float64, cfg.NumOutlets),
		flows:          make([]float64, cfg.NumOutlets),
		supplyUA:       make([]float64, cfg.NumOutlets),
	}
	airMass := RoomDepth * RoomWidth * cfg.Height * airDensity // kg, unscaled
	cellMass := airMass / float64(n) * cfg.ThermalMassFactor
	s.cellCap = cellMass * airCp
	s.groundUA = cfg.GroundUA / float64(n)

	// Perimeter cells share the envelope conductance equally.
	perimeter := 2*nx + 2*ny - 4
	// Seating cells: centers behind SeatStartX.
	dx := RoomDepth / float64(nx)
	seat := make([]bool, nx)
	for ix := range seat {
		seat[ix] = (float64(ix)+0.5)*dx >= cfg.SeatStartX
	}
	classOf := make(map[cellTerms]int)
	groupOf := make(map[[2]int]int)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			var c cellTerms
			var nbr [4]int32
			for _, nb := range [...]struct {
				ok    bool
				jx, j int
			}{
				{ix > 0, ix - 1, i - ny},
				{ix < nx-1, ix + 1, i + ny},
				{iy > 0, ix, i - 1},
				{iy < ny-1, ix, i + 1},
			} {
				if !nb.ok {
					continue
				}
				k := mixBase
				if seat[ix] != seat[nb.jx] {
					k = mixStage
				} else if seat[ix] {
					k = mixSeat
				}
				nbr[c.edges], c.kind[c.edges] = int32(nb.j), k
				c.edges++
			}
			if ix == 0 || ix == nx-1 || iy == 0 || iy == ny-1 {
				c.env = cfg.EnvelopeUA / float64(perimeter)
			}
			// Front cells (ix == 0) are fed by the outlet covering
			// their Y band.
			c.outlet = -1
			if ix == 0 {
				c.outlet = iy * cfg.NumOutlets / ny
				s.frontPerOutlet[c.outlet]++
			}
			load := 0
			if seat[ix] {
				load += 2
				s.seats++
			}
			if 5*ix >= 2*nx {
				load++
			}
			class, ok := classOf[c]
			if !ok {
				class = len(s.classes)
				classOf[c] = class
				s.classes = append(s.classes, c)
			}
			gi, ok := groupOf[[2]int{class, load}]
			if !ok {
				gi = len(s.groups)
				groupOf[[2]int{class, load}] = gi
				s.groups = append(s.groups, cellGroup{class: class, load: load})
			}
			g := &s.groups[gi]
			g.cells = append(g.cells, int32(i))
			g.nbr = append(g.nbr, nbr[:c.edges]...)
		}
	}
	s.classG = make([]float64, len(s.classes))
	s.classDecay = make([]float64, len(s.classes))

	for i := range s.temps {
		s.temps[i] = cfg.InitialTemp
	}
	for o := range s.outlet {
		s.outlet[o] = cfg.InitialTemp
	}
	return s, nil
}

// NumCells returns the zone cell count.
func (s *Simulator) NumCells() int { return s.nx * s.ny }

// Step advances the room by dt under the given inputs. dt is split
// into substeps no longer than Config.MaxStep, so results have the
// same fidelity whatever the caller's stepping.
func (s *Simulator) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	total := dt.Seconds()
	steps := int(math.Ceil(total / s.cfg.MaxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	for k := 0; k < steps; k++ {
		s.substep(sub, in)
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(s.temps)))
	return nil
}

// outletFlows sums the per-VAV flows into s.flows, the per-outlet
// totals (kg/s).
func (s *Simulator) outletFlows(flows []float64) {
	clear(s.flows)
	for i, f := range flows {
		o := i * s.cfg.NumOutlets / len(flows)
		if o >= s.cfg.NumOutlets {
			o = s.cfg.NumOutlets - 1
		}
		s.flows[o] += f
	}
}

// substep advances one internal step of sub seconds. Each cell relaxes
// toward the conductance-weighted equilibrium of its frozen
// neighbourhood; the conductances and their decay factors are
// computed once per class, then each cell sums its own weighted
// temperatures.
func (s *Simulator) substep(sub float64, in Inputs) {
	cfg := &s.cfg
	mix := cfg.MixingUA * s.driftFactor()
	// Validate() guarantees boost >= 1 and stage in (0, 1].
	mixBy := [...]float64{mixBase: mix, mixSeat: mix * cfg.SeatMixBoost, mixStage: mix * cfg.StageMixFactor}
	groundTemp := cfg.GroundTemp + cfg.GroundTempDriftPerDay*s.elapsed/86400

	s.outletFlows(in.HVAC.Flows)
	flows := s.flows
	var totalFlow float64
	for _, f := range flows {
		totalFlow += f
	}

	// Supply plenums: first-order mixing of supply air into each
	// outlet's delivery stream. Each outlet's flow splits over the
	// front cells in its band.
	for o := range s.outlet {
		alpha := 1 - math.Exp(-sub*flows[o]/cfg.PlenumMass)
		s.outlet[o] += alpha * (in.HVAC.SupplyTemp - s.outlet[o])
		s.supplyUA[o] = flows[o] * airCp / s.frontPerOutlet[o]
	}

	// Per-cell loads.
	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(s.seats)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(s.temps))
	}
	// Diffuser/buoyancy turbulence: a slow counter-phase oscillation
	// between the supply-jet half and the return-plume half of the room.
	// It is driven by the supply jets, so its strength follows the total
	// supply flow: near-quiet overnight when the plant is off (a small
	// buoyancy floor keeps the air from sitting perfectly still), full
	// strength under daytime ventilation.
	var wobAmp, wobPhase float64
	if cfg.TurbulencePower > 0 {
		period := cfg.TurbulencePeriod
		if period <= 0 {
			period = 37 * time.Minute
		}
		frac := 0.12 + 0.88*totalFlow/1.2
		if frac > 1 {
			frac = 1
		}
		wobAmp = frac * cfg.TurbulencePower / float64(len(s.temps))
		wobPhase = 2 * math.Pi * s.elapsed / period.Seconds()
	}
	// Two-zone standing oscillation: the front (supply-jet) half and
	// the back (return-plume) half breathe in counter-phase, like a slow
	// room-scale circulation cell. A cell's load depends only on
	// whether it is a seat and which half it is in, so the four loads
	// are computed once, indexed like cellGroup.load.
	var wob [2]float64 // front, back
	if wobAmp > 0 {
		wob[0] = wobAmp * math.Sin(wobPhase)
		wob[1] = wobAmp * math.Sin(wobPhase+math.Pi)
	}
	var load [4]float64
	for z := range load {
		load[z] = lightHeat
		if z >= 2 {
			load[z] += occHeat
		}
		if wobAmp > 0 {
			load[z] += wob[z%2]
		}
	}

	// Every cell of a class has the same total conductance, so its
	// decay factor is one exp.
	for c := range s.classes {
		ct := &s.classes[c]
		var g float64
		for _, k := range ct.kind[:ct.edges] {
			g += mixBy[k]
		}
		if ct.env > 0 {
			g += ct.env
		}
		g += s.groundUA
		if o := ct.outlet; o >= 0 && flows[o] > 0 {
			g += s.supplyUA[o]
		}
		s.classG[c] = g
		if g > 0 {
			s.classDecay[c] = math.Exp(-sub * g / s.cellCap)
		}
	}

	// The cell update reads only the frozen `old` field (a
	// Jacobi-style sweep) and relaxes exponentially, so it is
	// unconditionally stable. Each cell sums, from +0 and in this
	// order, its edges' conductance-weighted neighbour temperatures,
	// then the envelope, ground and supply terms. A group computes
	// each product once; a product of the same two float64 values is
	// the same float64 wherever it is computed, so every cell gets
	// the bits of a per-cell sum. A term the class lacks is added as
	// +0, which changes nothing: a sum started from +0 is never -0.
	old := s.temps
	next := s.scratch
	groundT := s.groundUA * groundTemp
	for gi := range s.groups {
		grp := &s.groups[gi]
		ct := &s.classes[grp.class]
		g, ld := s.classG[grp.class], load[grp.load]
		if !(g > 0) {
			// relax ignores gt when g <= 0 (the cells only take
			// their load); a NaN g gives NaN whatever gt is.
			for _, i := range grp.cells {
				next[i] = relax(old[i], g, 0, ld, sub, s.cellCap)
			}
			continue
		}
		decay := s.classDecay[grp.class]
		var envT, supplyT float64
		if ct.env > 0 {
			envT = ct.env * in.Ambient
		}
		if o := ct.outlet; o >= 0 && flows[o] > 0 {
			supplyT = s.supplyUA[o] * s.outlet[o]
		}
		var m [4]float64
		for e, k := range ct.kind[:ct.edges] {
			m[e] = mixBy[k]
		}
		switch ct.edges {
		case 2:
			for c, i := range grp.cells {
				nb := (*[2]int32)(grp.nbr[2*c:])
				gt := 0.0
				gt += m[0] * old[nb[0]]
				gt += m[1] * old[nb[1]]
				next[i] = relaxBy(old[i], g, gt+envT+groundT+supplyT, ld, decay)
			}
		case 3:
			for c, i := range grp.cells {
				nb := (*[3]int32)(grp.nbr[3*c:])
				gt := 0.0
				gt += m[0] * old[nb[0]]
				gt += m[1] * old[nb[1]]
				gt += m[2] * old[nb[2]]
				next[i] = relaxBy(old[i], g, gt+envT+groundT+supplyT, ld, decay)
			}
		default: // 4: Validate requires at least 2 cells a side
			for c, i := range grp.cells {
				nb := (*[4]int32)(grp.nbr[4*c:])
				gt := 0.0
				gt += m[0] * old[nb[0]]
				gt += m[1] * old[nb[1]]
				gt += m[2] * old[nb[2]]
				gt += m[3] * old[nb[3]]
				next[i] = relaxBy(old[i], g, gt+envT+groundT+supplyT, ld, decay)
			}
		}
	}
	s.temps, s.scratch = next, old
	s.elapsed += sub
}

// relax moves ti toward its frozen-neighborhood equilibrium
// (gt + load)/g with the exact exponential for time constant cap/g.
// It is unconditionally stable for any substep.
func relax(ti, g, gt, load, sub, cap float64) float64 {
	if g <= 0 {
		return ti + sub*load/cap
	}
	return relaxBy(ti, g, gt, load, math.Exp(-sub*g/cap))
}

// relaxBy is relax for g > 0 with its decay factor exp(-sub*g/cap)
// already known.
func relaxBy(ti, g, gt, load, decay float64) float64 {
	teq := (gt + load) / g
	return teq + (ti-teq)*decay
}

// driftFactor is the seasonal mixing drift multiplier after the
// elapsed simulated time.
func (s *Simulator) driftFactor() float64 {
	if s.cfg.MixDriftPerDay == 0 {
		return 1
	}
	days := s.elapsed / 86400
	return math.Exp(days * s.logDrift)
}

// cellIndexFrac maps a point to fractional cell-grid coordinates,
// clamped to the cell-center lattice.
func (s *Simulator) cellIndexFrac(p Point) (fx, fy float64) {
	dx := RoomDepth / float64(s.nx)
	dy := RoomWidth / float64(s.ny)
	fx = p.X/dx - 0.5
	fy = p.Y/dy - 0.5
	fx = math.Min(math.Max(fx, 0), float64(s.nx-1))
	fy = math.Min(math.Max(fy, 0), float64(s.ny-1))
	return fx, fy
}

// TemperatureAt returns the air temperature at a floor-plan point by
// bilinear interpolation between cell centers (clamped at the walls).
func (s *Simulator) TemperatureAt(p Point) float64 {
	fx, fy := s.cellIndexFrac(p)
	ix0 := int(fx)
	iy0 := int(fy)
	ix1 := ix0 + 1
	iy1 := iy0 + 1
	if ix1 > s.nx-1 {
		ix1 = s.nx - 1
	}
	if iy1 > s.ny-1 {
		iy1 = s.ny - 1
	}
	tx := fx - float64(ix0)
	ty := fy - float64(iy0)
	t00 := s.temps[ix0*s.ny+iy0]
	t01 := s.temps[ix0*s.ny+iy1]
	t10 := s.temps[ix1*s.ny+iy0]
	t11 := s.temps[ix1*s.ny+iy1]
	return (1-tx)*((1-ty)*t00+ty*t01) + tx*((1-ty)*t10+ty*t11)
}

// TemperaturesAt evaluates TemperatureAt for every point in ps,
// writing into dst when it has matching length (zero-alloc for hot
// monitoring loops that sample the truth field every control step) and
// allocating otherwise. It returns the filled slice.
func (s *Simulator) TemperaturesAt(ps []Point, dst []float64) []float64 {
	if len(dst) != len(ps) {
		dst = make([]float64, len(ps))
	}
	for i, p := range ps {
		dst[i] = s.TemperatureAt(p)
	}
	return dst
}

// MeanTemp returns the average cell temperature (the return-air
// temperature seen by the plant).
func (s *Simulator) MeanTemp() float64 {
	var sum float64
	for _, t := range s.temps {
		sum += t
	}
	return sum / float64(len(s.temps))
}
