package building

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

// TestValidateBoundsSizes pins the size limits: each spec below used to
// pass Validate, and New would then have tried to allocate terabytes,
// wrapped the office's zone count past int, or run 6e10 substeps for
// one minute. Each error names the value at fault.
func TestValidateBoundsSizes(t *testing.T) {
	huge := DefaultConfig()
	huge.NX, huge.NY = 1<<21, 1<<21
	long := DefaultConfig()
	long.NX, long.NY = 256, 17
	tiny := DefaultConfig()
	tiny.MaxStep = time.Nanosecond
	nan := DefaultConfig()
	nan.Height = math.NaN()
	weak := DefaultConfig()
	weak.MixingUA = 1e-310
	hot := DefaultConfig()
	hot.InitialTemp = 1e308
	wrap := DefaultOfficeConfig()
	wrap.ZX, wrap.ZY = 1<<32+1, 1<<32+1
	scale := DefaultOfficeConfig()
	scale.UAScale = make([]float64, scale.NumEdges())
	for i := range scale.UAScale {
		scale.UAScale[i] = 1
	}
	scale.UAScale[3] = 1e-300
	chain := DefaultResidenceConfig()
	chain.Zones = maxZones + 1
	slow := DefaultResidenceConfig()
	slow.MaxStep = 999 * time.Millisecond
	sun := DefaultResidenceConfig()
	sun.SolarPeak = 1e200
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"grid 2^21 x 2^21", huge.Validate(), "2097152x2097152"},
		{"grid 256 x 17", long.Validate(), "256x17 holds more than 4096"},
		{"max step 1ns", tiny.Validate(), "max step 1ns"},
		{"NaN height", nan.Validate(), "height NaN"},
		{"subnormal mixing", weak.Validate(), "mixing conductance 1e-310"},
		{"initial temp 1e308", hot.Validate(), "initial temperature 1e+308"},
		{"office 2^32+1 square", wrap.Validate(), "4294967297x4294967297"},
		{"office UA scale", scale.Validate(), "UA scale[3] = 1e-300"},
		{"residence zones", chain.Validate(), "got 4097"},
		{"residence max step", slow.Validate(), "residence max step 999ms"},
		{"residence solar", sun.Validate(), "solar peak 1e+200"},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, c.err, c.want)
		}
	}
	edge := DefaultConfig()
	edge.NX, edge.NY, edge.MaxStep = 16, 256, time.Second
	if err := edge.Validate(); err != nil {
		t.Errorf("16x256 grid with a 1s max step rejected: %v", err)
	}
}

// TestValidateRejectsNonFinite sets each float64 field of every
// archetype's config, and each element of a []float64 field, to NaN,
// +Inf and -Inf in turn, and requires Validate to reject each spec. It
// walks the configs by reflection, so a field added later is covered
// too.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, name := range Archetypes() {
		// A randomized office has a UAScale entry per edge.
		sp, err := RandomSpec(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var cfg reflect.Value
		for _, v := range []reflect.Value{reflect.ValueOf(sp.Auditorium), reflect.ValueOf(sp.Office), reflect.ValueOf(sp.Residence)} {
			if !v.IsNil() {
				cfg = v.Elem()
			}
		}
		checked := 0
		check := func(field string, v reflect.Value) {
			old := v.Float()
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				v.SetFloat(bad)
				if sp.Validate() == nil {
					t.Errorf("%s: %s = %v accepted", name, field, bad)
				}
			}
			v.SetFloat(old)
			checked++
		}
		for i := 0; i < cfg.NumField(); i++ {
			f, field := cfg.Field(i), cfg.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Float64:
				check(field, f)
			case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Float64:
				for k := 0; k < f.Len(); k++ {
					check(fmt.Sprintf("%s[%d]", field, k), f.Index(k))
				}
			}
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: restored spec rejected: %v", name, err)
		}
		t.Logf("%s: %d float values checked", name, checked)
	}
}

// FuzzSpecJSON: any JSON that decodes to a Spec either fails Validate
// or builds with New and takes one 10-minute Step without panicking,
// leaving every sensor and the mean at a finite temperature.
func FuzzSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil || sp.Validate() != nil {
			return
		}
		b, err := sp.New()
		if err != nil {
			t.Fatalf("valid spec did not build: %v", err)
		}
		in := Inputs{
			HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0, 0.4}, SupplyTemp: 14},
			Occupants: 40,
			LightsOn:  true,
			Ambient:   30,
		}
		if err := b.Step(10*time.Minute, in); err != nil {
			t.Fatalf("step: %v", err)
		}
		for _, s := range sp.Sensors() {
			if v := b.TemperatureAt(s.Pos); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sensor %d at %v after one step", s.ID, v)
			}
		}
		if v := b.MeanTemp(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("mean temperature %v after one step", v)
		}
	})
}
