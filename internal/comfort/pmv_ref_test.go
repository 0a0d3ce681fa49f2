package comfort

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// pmvRef is PMV with every power taken by math.Pow, as it was written
// before PMV squared x⁴ and took x^0.25 as Exp(0.25*Log(x)). It is the
// oracle PMV must match bit for bit, errors included.
func pmvRef(c Conditions) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	icl := 0.155 * c.Clothing
	m := c.Metabolic * 58.15
	const w = 0.0
	mw := m - w
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
	p5 := 308.7 - 0.028*mw + p2*math.Pow(tra/100, 4)
	xn := tcla / 100
	xf := xn
	const eps = 0.00015
	var hc float64
	converged := false
	for i := 0; i < 150; i++ {
		xf = (xf + xn) / 2
		hcn := 2.38 * math.Pow(math.Abs(100*xf-taa), 0.25)
		hc = hcf
		if hcn > hc {
			hc = hcn
		}
		xn = (p5 + p4*hc - p2*math.Pow(xf, 4)) / (100 + p3*hc)
		if math.Abs(xn-xf) < eps {
			converged = true
			break
		}
	}
	if !converged {
		return 0, ErrNoConvergence
	}
	tcl := 100*xn - 273

	hl1 := 3.05 * 0.001 * (5733 - 6.99*mw - pa)
	hl2 := 0.0
	if mw > 58.15 {
		hl2 = 0.42 * (mw - 58.15)
	}
	hl3 := 1.7 * 0.00001 * m * (5867 - pa)
	hl4 := 0.0014 * m * (34 - c.AirTemp)
	hl5 := 3.96 * fcl * (math.Pow(xn, 4) - math.Pow(tra/100, 4))
	hl6 := fcl * hc * (tcl - c.AirTemp)

	ts := 0.303*math.Exp(-0.036*m) + 0.028
	return ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6), nil
}

// pmvMismatch compares PMV with pmvRef on c, which must agree on the
// bits or on the error. It describes a difference, or returns "".
func pmvMismatch(c Conditions) string {
	got, gerr := PMV(c)
	want, werr := pmvRef(c)
	sameErr := (gerr == nil) == (werr == nil) && (gerr == nil || gerr.Error() == werr.Error())
	if sameErr && (gerr != nil || math.Float64bits(got) == math.Float64bits(want)) {
		return ""
	}
	return fmt.Sprintf("PMV %v (%x, err %v), reference %v (%x, err %v)",
		got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
}

// TestPMVMatchesReference sweeps the auditorium scenario over the whole
// validated air-temperature range, -10 to 50 degC in steps of 1e-5
// degC (6,000,001 temperatures), and requires PMV's bits and errors to
// be pmvRef's at every one.
func TestPMVMatchesReference(t *testing.T) {
	const n = 6_000_000
	for k := 0; k <= n; k++ {
		c := AuditoriumConditions(-10 + 60*float64(k)/n)
		if d := pmvMismatch(c); d != "" {
			t.Fatalf("air temp %v: %s", c.AirTemp, d)
		}
	}
}

// TestPow4MatchesPow pins pow4 to math.Pow(x, 4) at the special values
// and across the normal range it is documented for.
func TestPow4MatchesPow(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 2.6, 3.3, -3.3,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e-70, 1e70, math.MaxFloat64}
	for i := 0; i < 100_000; i++ {
		xs = append(xs, 2.5+float64(i)*1e-5)
	}
	for _, x := range xs {
		if got, want := pow4(x), math.Pow(x, 4); math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("pow4(%v) = %v, math.Pow = %v", x, got, want)
		}
	}
}

// FuzzPMV: any Conditions that Validate accepts give PMV and pmvRef
// the same bits, or the same error.
func FuzzPMV(f *testing.F) {
	seed := func(c Conditions) {
		b := make([]byte, 0, 48)
		for _, v := range [...]float64{c.AirTemp, c.RadiantTemp, c.AirVelocity, c.RelHumidity, c.Metabolic, c.Clothing} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(AuditoriumConditions(21))
	seed(Conditions{AirTemp: 22, RadiantTemp: 22, AirVelocity: 0.1, RelHumidity: 60, Metabolic: 1.2, Clothing: 0.5})
	seed(Conditions{AirTemp: 28, RadiantTemp: 28, AirVelocity: 0.1, RelHumidity: 40, Metabolic: 1, Clothing: 0.3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v [6]float64
		for i := range v {
			var b [8]byte
			data = data[copy(b[:], data):]
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		c := Conditions{AirTemp: v[0], RadiantTemp: v[1], AirVelocity: v[2], RelHumidity: v[3], Metabolic: v[4], Clothing: v[5]}
		if c.Validate() != nil {
			return
		}
		if d := pmvMismatch(c); d != "" {
			t.Fatalf("%+v: %s", c, d)
		}
	})
}

var pmvSink float64

// BenchmarkPMV scores one auditorium position, as the control study
// does for every comfort position on every occupied tick.
func BenchmarkPMV(b *testing.B) {
	c := AuditoriumConditions(22.3)
	for b.Loop() {
		v, err := PMV(c)
		if err != nil {
			b.Fatal(err)
		}
		pmvSink = v
	}
}
