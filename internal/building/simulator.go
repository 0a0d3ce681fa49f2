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
	wobPeriod      float64     // turbulence period, s
	frontPerOutlet []float64   // front cells fed by each outlet
	classes        []cellTerms // each conductance class's terms
	groups         []cellGroup // the cells of each (class, load) pair

	// Per-Step terms, compiled by compile from the Step's inputs and
	// substep length: they hold for every substep of the Step.
	sub        float64    // substep length, s
	rate       float64    // sub/cellCap, K/W
	supplyTemp float64    // supply air temperature, degC
	flows      []float64  // per-outlet supply flow, kg/s
	supplyUA   []float64  // per-outlet front-cell supply conductance, W/K
	plenumMix  []float64  // per-outlet 1-exp(-sub*flow/PlenumMass)
	baseLoad   [4]float64 // lights and occupants per cell, indexed like cellGroup.load
	wobAmp     float64    // turbulence amplitude per cell, W
	classEnvT  []float64  // per-class envelope term env*Ambient, W
	anchorG    []float64  // per-class conductance anchorD was taken at
	anchorD    []float64  // per-class exp(-sub*anchorG/cellCap)

	// Per-substep class terms, reused so a Step allocates nothing.
	classG     []float64 // per-class total conductance g, W/K
	classDecay []float64 // per-class decay d, exp(-sub*g/cellCap) to rounding
	classGain  []float64 // per-class (1-d)/g, K/W

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
	period := cfg.TurbulencePeriod
	if period <= 0 {
		period = 37 * time.Minute
	}
	s := &Simulator{
		cfg:            cfg,
		nx:             nx,
		ny:             ny,
		temps:          make([]float64, n),
		scratch:        make([]float64, n),
		outlet:         make([]float64, cfg.NumOutlets),
		logDrift:       math.Log1p(cfg.MixDriftPerDay),
		wobPeriod:      period.Seconds(),
		frontPerOutlet: make([]float64, cfg.NumOutlets),
		flows:          make([]float64, cfg.NumOutlets),
		supplyUA:       make([]float64, cfg.NumOutlets),
		plenumMix:      make([]float64, cfg.NumOutlets),
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
	nc := len(s.classes)
	s.classEnvT = make([]float64, nc)
	s.anchorG = make([]float64, nc)
	s.anchorD = make([]float64, nc)
	s.classG = make([]float64, nc)
	s.classDecay = make([]float64, nc)
	s.classGain = make([]float64, nc)

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

// StepperRevision names the numerics of the archetypes' Steps. The
// stages that cache simulated output (the pipeline's simulate and
// control stages) put it in their keys, so a change that moves
// trajectories' bits changes it and those caches miss once instead of
// serving the old numbers. Revision 2 compiles each Step's terms once:
// the auditorium's decays advance by series from a per-Step anchor
// and its cell update is division-free.
const StepperRevision = "2"

// Step advances the room by dt under the given inputs. dt is split
// into substeps no longer than Config.MaxStep, so results have the
// same fidelity whatever the caller's stepping.
func (s *Simulator) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	steps, sub := substeps(dt, s.cfg.MaxStep)
	s.compile(sub, in)
	for k := 0; k < steps; k++ {
		s.substep()
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(s.temps)))
	return nil
}

// substeps splits dt into the fewest substeps no longer than maxStep
// and returns their count and length in seconds.
func substeps(dt, maxStep time.Duration) (int, float64) {
	total := dt.Seconds()
	steps := int(math.Ceil(total / maxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	return steps, total / float64(steps)
}

// maxSeriesX is the largest exponent increment |x| over which decay
// advances a class's decay factor by series rather than exp: the
// series' first dropped term, x^3/6, is then below 1.7e-16 of it.
const maxSeriesX = 1e-5

// compile computes every term that holds for all substeps of a Step
// under in, split into substeps of sub seconds: the outlet flows, supply conductances
// and plenum mixing factors, the lighting and occupant loads, the
// turbulence amplitude and each class's envelope term. It drops the
// class decay anchors, so the Step's first substep takes one exp per
// class.
func (s *Simulator) compile(sub float64, in Inputs) {
	cfg := &s.cfg
	s.sub, s.rate, s.supplyTemp = sub, sub/s.cellCap, in.HVAC.SupplyTemp

	// Supply plenums: first-order mixing of supply air into each
	// outlet's delivery stream. Each outlet's flow splits over the
	// front cells in its band.
	s.outletFlows(in.HVAC.Flows)
	var totalFlow float64
	for o, f := range s.flows {
		totalFlow += f
		s.plenumMix[o] = 1 - math.Exp(-sub*f/cfg.PlenumMass)
		s.supplyUA[o] = f * airCp / s.frontPerOutlet[o]
	}

	// Per-cell loads. A cell's load depends only on whether it is a
	// seat and which half of the room it is in, so the loads are
	// indexed like cellGroup.load; substep adds the turbulence.
	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(s.seats)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(s.temps))
	}
	for z := range s.baseLoad {
		s.baseLoad[z] = lightHeat
		if z >= 2 {
			s.baseLoad[z] += occHeat
		}
	}
	// Diffuser/buoyancy turbulence is driven by the supply jets, so its
	// strength follows the total supply flow: near-quiet overnight when
	// the plant is off (a small buoyancy floor keeps the air from
	// sitting perfectly still), full strength under daytime
	// ventilation.
	s.wobAmp = 0
	if cfg.TurbulencePower > 0 {
		frac := 0.12 + 0.88*totalFlow/1.2
		if frac > 1 {
			frac = 1
		}
		s.wobAmp = frac * cfg.TurbulencePower / float64(len(s.temps))
	}

	for c := range s.classes {
		s.classEnvT[c] = 0
		if env := s.classes[c].env; env > 0 {
			s.classEnvT[c] = env * in.Ambient
		}
		// A NaN anchor makes decay re-anchor at the first substep.
		s.anchorG[c] = math.NaN()
	}
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

// decay returns class c's decay factor d = exp(-sub*g/cellCap) at
// conductance g > 0, and its gain (1-d)/g. Within a Step a class's g
// moves only with the mixing drift, by about 1e-7 of itself a
// substep, so d is the class's anchor decay d0, taken with exp at
// conductance g0, advanced by the series
// exp(-x) = 1 - x + x^2/2 with x = (g-g0)*sub/cellCap, which is exact
// to rounding while |x| <= maxSeriesX. A larger |x|, or a dropped
// anchor, re-anchors at g.
func (s *Simulator) decay(c int, g float64) (d, gain float64) {
	if x := (g - s.anchorG[c]) * s.rate; math.Abs(x) <= maxSeriesX {
		d = s.anchorD[c] * (1 - x + x*x/2)
	} else {
		d = math.Exp(-s.sub * g / s.cellCap)
		s.anchorG[c], s.anchorD[c] = g, d
	}
	return d, (1 - d) / g
}

// substep advances one internal step of the compiled Step. Each cell
// relaxes toward the conductance-weighted equilibrium of its frozen
// neighbourhood; the conductances, decay factors and gains are
// computed once per class, then each cell sums its own weighted
// temperatures. The mixing drift, the turbulence phase, the ground
// drift and the plenum temperatures advance every substep.
func (s *Simulator) substep() {
	cfg := &s.cfg
	mix := cfg.MixingUA * s.driftFactor()
	// Validate() guarantees boost >= 1 and stage in (0, 1].
	mixBy := [...]float64{mixBase: mix, mixSeat: mix * cfg.SeatMixBoost, mixStage: mix * cfg.StageMixFactor}
	groundTemp := cfg.GroundTemp + cfg.GroundTempDriftPerDay*s.elapsed/86400

	for o, a := range s.plenumMix {
		s.outlet[o] += a * (s.supplyTemp - s.outlet[o])
	}

	// Two-zone standing oscillation: the front (supply-jet) half and
	// the back (return-plume) half breathe in counter-phase, like a slow
	// room-scale circulation cell.
	load := s.baseLoad
	if s.wobAmp > 0 {
		phase := 2 * math.Pi * s.elapsed / s.wobPeriod
		wob := [2]float64{s.wobAmp * math.Sin(phase), s.wobAmp * math.Sin(phase+math.Pi)} // front, back
		for z := range load {
			load[z] += wob[z%2]
		}
	}

	// Every cell of a class has the same total conductance, so its
	// decay factor and gain are computed once.
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
		if o := ct.outlet; o >= 0 && s.flows[o] > 0 {
			g += s.supplyUA[o]
		}
		s.classG[c] = g
		if g > 0 {
			s.classDecay[c], s.classGain[c] = s.decay(c, g)
		}
	}

	// The cell update reads only the frozen `old` field (a
	// Jacobi-style sweep) and relaxes exponentially, so it is
	// unconditionally stable: next = d*T + gain*(gt + ext). gt sums,
	// from +0 and in edge order, the cell's conductance-weighted
	// neighbour temperatures; ext, the envelope, ground and supply
	// terms plus the load in that order, is one value per group. A
	// product of the same two float64 values is the same float64
	// wherever it is computed, so every cell gets the bits of a
	// per-cell update.
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
				next[i] = relax(old[i], g, 0, ld, s.sub, s.cellCap)
			}
			continue
		}
		d, gain := s.classDecay[grp.class], s.classGain[grp.class]
		var supplyT float64
		if o := ct.outlet; o >= 0 && s.flows[o] > 0 {
			supplyT = s.supplyUA[o] * s.outlet[o]
		}
		ext := s.classEnvT[grp.class] + groundT + supplyT + ld
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
				next[i] = d*old[i] + gain*(gt+ext)
			}
		case 3:
			for c, i := range grp.cells {
				nb := (*[3]int32)(grp.nbr[3*c:])
				gt := 0.0
				gt += m[0] * old[nb[0]]
				gt += m[1] * old[nb[1]]
				gt += m[2] * old[nb[2]]
				next[i] = d*old[i] + gain*(gt+ext)
			}
		default: // 4: Validate requires at least 2 cells a side
			for c, i := range grp.cells {
				nb := (*[4]int32)(grp.nbr[4*c:])
				gt := 0.0
				gt += m[0] * old[nb[0]]
				gt += m[1] * old[nb[1]]
				gt += m[2] * old[nb[2]]
				gt += m[3] * old[nb[3]]
				next[i] = d*old[i] + gain*(gt+ext)
			}
		}
	}
	s.temps, s.scratch = next, old
	s.elapsed += s.sub
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
