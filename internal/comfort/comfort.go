// Package comfort implements Fanger's thermal comfort model: the
// Predicted Mean Vote (PMV) and Predicted Percentage Dissatisfied
// (PPD) of ISO 7730 / ASHRAE 55.
//
// The paper uses PMV to argue that the ~2 degC spatial spread it
// measures across the auditorium moves occupants' comfort by ~0.5 PMV
// (comfortable to slightly cool/warm), which is why a single
// thermostat pair cannot represent the room.
package comfort

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when the clothing surface temperature
// iteration fails to converge.
var ErrNoConvergence = errors.New("comfort: clothing temperature iteration did not converge")

// Conditions are the six PMV inputs.
type Conditions struct {
	// AirTemp is the air temperature in degC.
	AirTemp float64
	// RadiantTemp is the mean radiant temperature in degC (often equal
	// to air temperature indoors).
	RadiantTemp float64
	// AirVelocity is the relative air speed in m/s.
	AirVelocity float64
	// RelHumidity is the relative humidity in percent.
	RelHumidity float64
	// Metabolic is the metabolic rate in met (1.0 = seated, quiet).
	Metabolic float64
	// Clothing is the clothing insulation in clo (1.0 = typical winter
	// indoor clothing).
	Clothing float64
}

// AuditoriumConditions returns the paper's audience scenario: seated,
// quiet occupants in indoor winter clothing, still air, at the given
// air temperature.
func AuditoriumConditions(airTemp float64) Conditions {
	return Conditions{
		AirTemp:     airTemp,
		RadiantTemp: airTemp,
		AirVelocity: 0.1,
		RelHumidity: 40,
		Metabolic:   1.0,
		Clothing:    1.0,
	}
}

// Validate checks the inputs are finite and within the model's
// sensible range. Each comparison is written so that NaN fails it.
func (c Conditions) Validate() error {
	if !(c.AirTemp >= -10 && c.AirTemp <= 50) {
		return fmt.Errorf("comfort: air temperature %v degC out of range", c.AirTemp)
	}
	if math.IsNaN(c.RadiantTemp) || math.IsInf(c.RadiantTemp, 0) {
		return fmt.Errorf("comfort: radiant temperature %v degC is not finite", c.RadiantTemp)
	}
	if !(c.AirVelocity >= 0) || math.IsInf(c.AirVelocity, 1) {
		return fmt.Errorf("comfort: air velocity %v must be finite and non-negative", c.AirVelocity)
	}
	if !(c.RelHumidity >= 0 && c.RelHumidity <= 100) {
		return fmt.Errorf("comfort: relative humidity %v%% out of range", c.RelHumidity)
	}
	if !(c.Metabolic > 0) || math.IsInf(c.Metabolic, 1) {
		return fmt.Errorf("comfort: metabolic rate %v must be finite and positive", c.Metabolic)
	}
	if !(c.Clothing >= 0) || math.IsInf(c.Clothing, 1) {
		return fmt.Errorf("comfort: clothing insulation %v must be finite and non-negative", c.Clothing)
	}
	return nil
}

// pow4 returns x⁴ as (x*x)*(x*x). For finite x whose x² and x⁴ are
// normal floats, and at 0, ±Inf and NaN, that is the float64
// math.Pow(x, 4) returns: Pow squares the Frexp mantissa twice, each
// time with one rounding and an exact doubling, and scales by Ldexp,
// and scaling by a power of two commutes with rounding in the normal
// range. PMV's arguments (tra/100, xf, xn) lie near 2.6–3.3.
func pow4(x float64) float64 {
	x2 := x * x
	return x2 * x2
}

// PMV computes Fanger's Predicted Mean Vote: the expected comfort vote
// on the 7-point scale from -3 (cold) through 0 (neutral) to +3 (hot).
func PMV(c Conditions) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	icl := 0.155 * c.Clothing // m2K/W
	m := c.Metabolic * 58.15  // W/m2
	const w = 0.0             // external work
	mw := m - w
	// Water vapour pressure, Pa.
	pa := c.RelHumidity * 10 * math.Exp(16.6536-4030.183/(c.AirTemp+235))

	var fcl float64
	if icl <= 0.078 {
		fcl = 1 + 1.29*icl
	} else {
		fcl = 1.05 + 0.645*icl
	}
	hcf := 12.1 * math.Sqrt(c.AirVelocity)
	taa := c.AirTemp + 273
	tra := c.RadiantTemp + 273
	tcla := taa + (35.5-c.AirTemp)/(3.5*icl+0.1)

	p1 := icl * fcl
	p2 := p1 * 3.96
	p3 := p1 * 100
	p4 := p1 * taa
	p5 := 308.7 - 0.028*mw + p2*pow4(tra/100)
	xn := tcla / 100
	xf := xn
	const eps = 0.00015
	var hc float64
	converged := false
	for i := 0; i < 150; i++ {
		xf = (xf + xn) / 2
		// math.Pow(a, 0.25) for a >= 0 is exactly Exp(0.25*Log(a)),
		// at 0, +Inf and NaN too.
		hcn := 2.38 * math.Exp(0.25*math.Log(math.Abs(100*xf-taa)))
		hc = hcf
		if hcn > hc {
			hc = hcn
		}
		xn = (p5 + p4*hc - p2*pow4(xf)) / (100 + p3*hc)
		if math.Abs(xn-xf) < eps {
			converged = true
			break
		}
	}
	if !converged {
		return 0, ErrNoConvergence
	}
	tcl := 100*xn - 273

	// Heat losses.
	hl1 := 3.05 * 0.001 * (5733 - 6.99*mw - pa) // skin diffusion
	hl2 := 0.0                                  // sweating
	if mw > 58.15 {
		hl2 = 0.42 * (mw - 58.15)
	}
	hl3 := 1.7 * 0.00001 * m * (5867 - pa)         // latent respiration
	hl4 := 0.0014 * m * (34 - c.AirTemp)           // dry respiration
	hl5 := 3.96 * fcl * (pow4(xn) - pow4(tra/100)) // radiation
	hl6 := fcl * hc * (tcl - c.AirTemp)            // convection

	ts := 0.303*math.Exp(-0.036*m) + 0.028
	return ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6), nil
}

// PPD converts a PMV into the Predicted Percentage Dissatisfied.
func PPD(pmv float64) float64 {
	return 100 - 95*math.Exp(-0.03353*math.Pow(pmv, 4)-0.2179*pmv*pmv)
}

// Comfortable reports whether the PMV is within ASHRAE 55's
// recommended band of +-0.5.
func Comfortable(pmv float64) bool {
	return pmv >= -0.5 && pmv <= 0.5
}

// NeutralTemperature returns the air temperature at which the given
// conditions (ignoring their AirTemp/RadiantTemp) produce PMV = 0, by
// bisection over [5, 45] degC. It is how a comfort-aware controller
// picks its setpoint.
func NeutralTemperature(c Conditions) (float64, error) {
	lo, hi := 5.0, 45.0
	at := func(t float64) (float64, error) {
		cc := c
		cc.AirTemp = t
		cc.RadiantTemp = t
		return PMV(cc)
	}
	plo, err := at(lo)
	if err != nil {
		return 0, err
	}
	phi, err := at(hi)
	if err != nil {
		return 0, err
	}
	if plo > 0 || phi < 0 {
		return 0, fmt.Errorf("comfort: no neutral temperature in [5,45] degC for %+v", c)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		pm, err := at(mid)
		if err != nil {
			return 0, err
		}
		if pm < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
