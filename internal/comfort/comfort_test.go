package comfort

import (
	"errors"
	"math"
	"testing"
)

func TestPMVNeutralConditions(t *testing.T) {
	// ISO 7730 reference: ta=tr=22, v=0.1, rh=60, 1.2 met, 0.5 clo
	// gives PMV ~ -0.75 (slightly cool); the looser canonical check is
	// that winter comfort conditions (ta ~ 22-24, 1 clo, 1 met) land
	// near neutral.
	pmv, err := PMV(Conditions{
		AirTemp: 23, RadiantTemp: 23, AirVelocity: 0.1,
		RelHumidity: 40, Metabolic: 1.0, Clothing: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmv) > 0.5 {
		t.Errorf("PMV at 23 degC winter clothing = %v, want near 0", pmv)
	}
}

func TestPMVISO7730Reference(t *testing.T) {
	// Reference case from ISO 7730 Annex D table: ta=tr=22 degC,
	// v=0.1 m/s, RH=60%%, M=1.2 met, Icl=0.5 clo -> PMV = -0.75 (+-
	// rounding).
	pmv, err := PMV(Conditions{
		AirTemp: 22, RadiantTemp: 22, AirVelocity: 0.1,
		RelHumidity: 60, Metabolic: 1.2, Clothing: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmv-(-0.75)) > 0.1 {
		t.Errorf("PMV = %v, want -0.75 +- 0.1", pmv)
	}
}

func TestPMVMonotoneInTemperature(t *testing.T) {
	prev := math.Inf(-1)
	for temp := 16.0; temp <= 30; temp++ {
		pmv, err := PMV(AuditoriumConditions(temp))
		if err != nil {
			t.Fatalf("PMV(%v): %v", temp, err)
		}
		if pmv <= prev {
			t.Fatalf("PMV not increasing at %v degC: %v <= %v", temp, pmv, prev)
		}
		prev = pmv
	}
}

func TestPaperTwoDegreeClaim(t *testing.T) {
	// Paper section V: a 2 degC difference moves PMV by ~0.5 under
	// auditorium conditions.
	a, err := PMV(AuditoriumConditions(20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PMV(AuditoriumConditions(22))
	if err != nil {
		t.Fatal(err)
	}
	if d := b - a; d < 0.3 || d > 0.8 {
		t.Errorf("PMV change over 2 degC = %v, want ~0.5", d)
	}
}

func TestPPD(t *testing.T) {
	// Neutral PMV gives the 5% floor.
	if got := PPD(0); math.Abs(got-5) > 1e-9 {
		t.Errorf("PPD(0) = %v, want 5", got)
	}
	// Symmetric.
	if PPD(1.5) != PPD(-1.5) {
		t.Error("PPD should be symmetric")
	}
	// ISO: PMV=1 -> PPD ~ 26%.
	if got := PPD(1); math.Abs(got-26.1) > 1 {
		t.Errorf("PPD(1) = %v, want ~26", got)
	}
	// Increasing in |PMV|.
	if PPD(2) <= PPD(1) {
		t.Error("PPD should grow with |PMV|")
	}
}

func TestComfortable(t *testing.T) {
	if !Comfortable(0) || !Comfortable(0.5) || !Comfortable(-0.5) {
		t.Error("band edges should be comfortable")
	}
	if Comfortable(0.51) || Comfortable(-0.51) {
		t.Error("outside band should be uncomfortable")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Conditions)
	}{
		{"air temp low", func(c *Conditions) { c.AirTemp = -20 }},
		{"air temp high", func(c *Conditions) { c.AirTemp = 60 }},
		{"negative velocity", func(c *Conditions) { c.AirVelocity = -1 }},
		{"humidity high", func(c *Conditions) { c.RelHumidity = 150 }},
		{"zero metabolic", func(c *Conditions) { c.Metabolic = 0 }},
		{"negative clothing", func(c *Conditions) { c.Clothing = -0.1 }},
		{"NaN air temp", func(c *Conditions) { c.AirTemp = math.NaN() }},
		{"NaN radiant temp", func(c *Conditions) { c.RadiantTemp = math.NaN() }},
		{"infinite radiant temp", func(c *Conditions) { c.RadiantTemp = math.Inf(1) }},
		{"NaN velocity", func(c *Conditions) { c.AirVelocity = math.NaN() }},
		{"infinite velocity", func(c *Conditions) { c.AirVelocity = math.Inf(1) }},
		{"NaN humidity", func(c *Conditions) { c.RelHumidity = math.NaN() }},
		{"NaN metabolic", func(c *Conditions) { c.Metabolic = math.NaN() }},
		{"infinite metabolic", func(c *Conditions) { c.Metabolic = math.Inf(1) }},
		{"NaN clothing", func(c *Conditions) { c.Clothing = math.NaN() }},
		{"infinite clothing", func(c *Conditions) { c.Clothing = math.Inf(1) }},
	}
	for _, tc := range cases {
		c := AuditoriumConditions(21)
		tc.mutate(&c)
		if _, err := PMV(c); err == nil || errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: PMV error %v, want a validation error", tc.name, err)
		}
	}
}

func TestNakedConditions(t *testing.T) {
	// Very low clothing exercises the icl <= 0.078 branch.
	c := AuditoriumConditions(28)
	c.Clothing = 0.3
	if _, err := PMV(c); err != nil {
		t.Fatalf("light clothing: %v", err)
	}
}

func TestNeutralTemperature(t *testing.T) {
	c := AuditoriumConditions(0) // AirTemp overridden by the solver
	neutral, err := NeutralTemperature(c)
	if err != nil {
		t.Fatal(err)
	}
	// Seated, 1 clo: neutral air temperature in the low twenties.
	if neutral < 20 || neutral > 26 {
		t.Errorf("neutral temperature = %v, want low-to-mid twenties", neutral)
	}
	pmv, err := PMV(AuditoriumConditions(neutral))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmv) > 1e-6 {
		t.Errorf("PMV at neutral temperature = %v, want ~0", pmv)
	}
	// Lighter clothing raises the neutral temperature.
	light := c
	light.Clothing = 0.5
	lightNeutral, err := NeutralTemperature(light)
	if err != nil {
		t.Fatal(err)
	}
	if lightNeutral <= neutral {
		t.Errorf("light clothing neutral %v not above winter %v", lightNeutral, neutral)
	}
}
