package building

import (
	"math"
	"time"
)

// network is the thermal model of the office and the residence, after
// Doddi et al.'s multi-zone thermal network: an nx-by-ny grid of
// well-mixed zones, adjacent zones joined by conductances, each zone
// coupled to ambient through its envelope and roof shares and fed the
// supply air of its column's VAVs.
type network struct {
	field           // the grid and floor plan; temps is unset
	zoneCap float64 // J/K per zone
	// interUA is the base inter-zone conductance in W/K. uaScale, when
	// not empty, scales each edge's as OfficeConfig.UAScale does.
	interUA float64
	uaScale []float64
	envUA   []float64 // per-zone conductance to ambient, W/K
	roofUA  float64   // per-zone roof conductance to ambient, W/K
	// The first occupied zones in row-major order share the occupant
	// and lighting heat, and 0.7 of the solar gain (W at peak
	// irradiance); the others share the remaining 0.3.
	occupied      int
	occupantHeat  float64 // W per person
	lightingPower float64 // W when the lights are on
	solarGain     float64
	initialTemp   float64       // degC
	maxStep       time.Duration // 0 selects 10 s
}

// zoneNet steps a network: each substep, every zone relaxes toward
// the conductance-weighted equilibrium of its frozen neighbourhood by
// its exact exponential decay. It satisfies Building.
type zoneNet struct {
	network
	scratch []float64

	// links lists each zone's neighbours in edge order ix-1, ix+1,
	// iy-1, iy+1, zone i's at links[first[i]:first[i+1]].
	links []link
	first []int

	// Per-Step terms, compiled by compile from the Step's inputs.
	sub       float64   // substep length, s
	colFlow   []float64 // scratch: per-column supply flow, kg/s
	zoneFlow  []float64 // per-zone supply flow, kg/s
	envT      []float64 // per-zone envelope term envUA*Ambient, W
	roofT     float64   // roof term roofUA*Ambient, W
	supplyT   []float64 // per-zone supply term flow*airCp*SupplyTemp, W
	zoneG     []float64 // per-zone total conductance, W/K
	zoneDecay []float64 // per-zone exp(-sub*g/zoneCap)
	load      float64   // occupant and lighting heat per occupied zone, W

	elapsed float64 // seconds simulated (drives the solar diurnal phase)
}

// link is one neighbour of a zone and the conductance between them.
type link struct {
	j  int     // neighbour zone
	ua float64 // W/K
}

// newZoneNet returns nw's stepper at its uniform initial temperature.
func newZoneNet(nw network) *zoneNet {
	nx, ny := nw.nx, nw.ny
	n := nx * ny
	if nw.maxStep <= 0 {
		nw.maxStep = 10 * time.Second
	}
	z := &zoneNet{
		network: nw,
		scratch: make([]float64, n),
		first:   make([]int, n+1),

		colFlow:   make([]float64, ny),
		zoneFlow:  make([]float64, n),
		envT:      make([]float64, n),
		supplyT:   make([]float64, n),
		zoneG:     make([]float64, n),
		zoneDecay: make([]float64, n),
	}
	z.temps = make([]float64, n)
	for i := range z.temps {
		z.temps[i] = nw.initialTemp
	}

	edgeUA := func(e int) float64 {
		if len(nw.uaScale) == 0 {
			return nw.interUA
		}
		return nw.interUA * nw.uaScale[e]
	}
	xEdge := func(ix, iy int) int { return ix*ny + iy }
	yEdge := func(ix, iy int) int { return (nx-1)*ny + ix*(ny-1) + iy }
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			if ix > 0 {
				z.links = append(z.links, link{i - ny, edgeUA(xEdge(ix-1, iy))})
			}
			if ix < nx-1 {
				z.links = append(z.links, link{i + ny, edgeUA(xEdge(ix, iy))})
			}
			if iy > 0 {
				z.links = append(z.links, link{i - 1, edgeUA(yEdge(ix, iy-1))})
			}
			if iy < ny-1 {
				z.links = append(z.links, link{i + 1, edgeUA(yEdge(ix, iy))})
			}
			z.first[i+1] = len(z.links)
		}
	}
	return z
}

// Step advances the network by dt under the given inputs.
func (z *zoneNet) Step(dt time.Duration, in Inputs) error {
	if err := checkStep(dt, in); err != nil {
		return err
	}
	steps, sub := substeps(dt, z.maxStep)
	z.compile(sub, in)
	for k := 0; k < steps; k++ {
		z.substep()
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(z.temps)))
	return nil
}

// compile computes every term that holds for all substeps of a Step
// under in, split into substeps of sub seconds: the zone flows, each
// zone's source terms, total conductance and decay factor, and the
// occupied zones' load.
func (z *zoneNet) compile(sub float64, in Inputs) {
	z.sub = sub

	// Each VAV serves a contiguous band of Y columns; its flow splits
	// evenly over the zones in the band.
	clear(z.zoneFlow)
	if nf := len(in.HVAC.Flows); nf > 0 {
		clear(z.colFlow)
		for i, f := range in.HVAC.Flows {
			z.colFlow[i*z.ny/nf] += f
		}
		for i := range z.zoneFlow {
			z.zoneFlow[i] = z.colFlow[i%z.ny] / float64(z.nx)
		}
	}

	occHeat := float64(in.Occupants) * z.occupantHeat / float64(z.occupied)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = z.lightingPower / float64(z.occupied)
	}
	z.load = occHeat + lightHeat

	// A zone's conductance sums, in this order, its edges, envelope,
	// roof and supply; Validate gives every zone an edge, so g > 0.
	z.roofT = z.roofUA * in.Ambient
	for i := range z.temps {
		var g float64
		for _, l := range z.links[z.first[i]:z.first[i+1]] {
			g += l.ua
		}
		z.envT[i] = 0
		if e := z.envUA[i]; e > 0 {
			g += e
			z.envT[i] = e * in.Ambient
		}
		g += z.roofUA
		z.supplyT[i] = 0
		if f := z.zoneFlow[i]; f > 0 {
			gs := f * airCp
			g += gs
			z.supplyT[i] = gs * in.HVAC.SupplyTemp
		}
		z.zoneG[i] = g
		z.zoneDecay[i] = math.Exp(-sub * g / z.zoneCap)
	}
}

// solarShape is the diurnal irradiance profile: a half-sine between
// 06:00 and 18:00 of the simulated day. Traces start at midnight, so
// the phase is just elapsed time modulo 24 h.
func (z *zoneNet) solarShape() float64 {
	h := math.Mod(z.elapsed/3600, 24)
	if h < 6 || h > 18 {
		return 0
	}
	return math.Sin(math.Pi * (h - 6) / 12)
}

// substep advances one internal step of the compiled Step. A zone's
// sum gt takes, from +0 and in this order, its neighbour terms,
// envelope, roof and supply; a term it lacks is ±0, which changes
// nothing, since a sum from +0 is never -0.
func (z *zoneNet) substep() {
	// Solar gain lands mostly on the occupied (front, south-glazed)
	// zones. The asymmetry is what keeps a chain of zones from
	// collapsing to one effective state.
	occLoad, otherLoad := z.load, 0.0
	if z.solarGain > 0 {
		solar := z.solarGain * z.solarShape()
		occLoad += solar * 0.7 / float64(z.occupied)
		otherLoad = solar * 0.3 / float64(len(z.temps)-z.occupied)
	}

	old := z.temps
	next := z.scratch
	for i := range old {
		gt := 0.0
		for _, l := range z.links[z.first[i]:z.first[i+1]] {
			gt += l.ua * old[l.j]
		}
		gt += z.envT[i]
		gt += z.roofT
		gt += z.supplyT[i]
		load := otherLoad
		if i < z.occupied {
			load = occLoad
		}
		next[i] = relaxBy(old[i], z.zoneG[i], gt, load, z.zoneDecay[i])
	}
	z.temps, z.scratch = next, old
	z.elapsed += z.sub
}
