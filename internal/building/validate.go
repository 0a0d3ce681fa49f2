package building

import (
	"fmt"
	"math"
	"time"
)

// Size limits for every archetype's spec. Validate applies them before
// New allocates anything, so a spec from outside (a fleet plan, a
// request body) cannot ask for a grid that would not fit in memory, a
// substep so short that one Step never ends, or parameters whose sums
// overflow to Inf within a Step. Each is at least 10x beyond any
// default, randomized or tested building: the largest grid in use is
// 16x16, the shortest MaxStep 10 s and the largest parameter 20,000.
const (
	maxGridSide  = 256         // cells or zones along one axis
	maxZones     = 4096        // cells or zones in one building
	minMaxStep   = time.Second // shortest nonzero MaxStep
	maxMagnitude = 1e6         // largest |value| of any float parameter
	// minConductance is the smallest base conductance (W/K) or
	// conductance scale; with it every cell's total conductance stays
	// a normal float, so (gt + load)/g cannot overflow.
	minConductance = 1e-3
)

// param is one named float parameter of a config.
type param struct {
	name string
	v    float64
}

// checkMagnitudes rejects, by name, the first parameter that is NaN or
// larger in magnitude than maxMagnitude.
func checkMagnitudes(prefix string, ps ...param) error {
	for _, p := range ps {
		if !(math.Abs(p.v) <= maxMagnitude) {
			return fmt.Errorf("building: %s%s %v exceeds %g in magnitude", prefix, p.name, p.v, maxMagnitude)
		}
	}
	return nil
}

// checkMaxStep accepts a zero MaxStep (the 10 s default) or one of at
// least minMaxStep.
func checkMaxStep(prefix string, d time.Duration) error {
	if d != 0 && d < minMaxStep {
		return fmt.Errorf("building: %smax step %v must be 0 (the 10s default) or at least %v", prefix, d, minMaxStep)
	}
	return nil
}

// Validate checks every Config field against its physical range. It
// replaces the old silent clamps (SeatMixBoost < 1 treated as 1,
// StageMixFactor outside (0, 1] treated as 1): an out-of-range value
// now surfaces as an error at construction time instead of silently
// retuning the physics. A zero MaxStep is the one permitted zero
// value — NewSimulator fills in the 10 s default. The grid, MaxStep
// and every float are bounded by the size limits above.
func (c Config) Validate() error {
	if c.NX < 2 || c.NY < 2 || c.NX > maxGridSide || c.NY > maxGridSide {
		return fmt.Errorf("building: grid %dx%d must be 2 to %d cells a side", c.NX, c.NY, maxGridSide)
	}
	if c.NX*c.NY > maxZones {
		return fmt.Errorf("building: grid %dx%d holds more than %d cells", c.NX, c.NY, maxZones)
	}
	if c.Height <= 0 {
		return fmt.Errorf("building: height %v must be positive", c.Height)
	}
	if c.ThermalMassFactor < 1 {
		return fmt.Errorf("building: thermal mass factor %v must be >= 1", c.ThermalMassFactor)
	}
	if c.MixingUA < minConductance {
		return fmt.Errorf("building: mixing conductance %v must be at least %g", c.MixingUA, minConductance)
	}
	if !(-0.5 <= c.MixDriftPerDay && c.MixDriftPerDay <= 0.5) {
		return fmt.Errorf("building: mixing drift %v/day outside [-0.5, 0.5]", c.MixDriftPerDay)
	}
	if c.EnvelopeUA < 0 || c.GroundUA < 0 {
		return fmt.Errorf("building: conductances must be non-negative (envelope %v, ground %v)",
			c.EnvelopeUA, c.GroundUA)
	}
	if c.SeatMixBoost < 1 {
		return fmt.Errorf("building: seat mix boost %v must be >= 1", c.SeatMixBoost)
	}
	if !(0 < c.StageMixFactor && c.StageMixFactor <= 1) {
		return fmt.Errorf("building: stage mix factor %v outside (0, 1]", c.StageMixFactor)
	}
	if c.NumOutlets <= 0 {
		return fmt.Errorf("building: outlet count %d must be positive", c.NumOutlets)
	}
	if c.NumOutlets > c.NY {
		return fmt.Errorf("building: %d outlets exceed %d front cells", c.NumOutlets, c.NY)
	}
	if c.PlenumMass <= 0 {
		return fmt.Errorf("building: plenum mass %v must be positive", c.PlenumMass)
	}
	if err := checkMaxStep("", c.MaxStep); err != nil {
		return err
	}
	if err := checkMagnitudes("",
		param{"height", c.Height}, param{"thermal mass factor", c.ThermalMassFactor},
		param{"mixing conductance", c.MixingUA}, param{"envelope conductance", c.EnvelopeUA},
		param{"ground conductance", c.GroundUA}, param{"ground temperature", c.GroundTemp},
		param{"ground drift", c.GroundTempDriftPerDay}, param{"occupant heat", c.OccupantHeat},
		param{"seating start", c.SeatStartX}, param{"seat mix boost", c.SeatMixBoost},
		param{"lighting power", c.LightingPower}, param{"turbulence power", c.TurbulencePower},
		param{"plenum mass", c.PlenumMass}, param{"initial temperature", c.InitialTemp},
	); err != nil {
		return err
	}
	// Seating must cover at least one cell column, else occupant heat
	// has nowhere to land.
	dx := RoomDepth / float64(c.NX)
	seats := false
	for ix := 0; ix < c.NX; ix++ {
		if (float64(ix)+0.5)*dx >= c.SeatStartX {
			seats = true
			break
		}
	}
	if !seats {
		return fmt.Errorf("building: seating start %v leaves no seat cells", c.SeatStartX)
	}
	return nil
}
