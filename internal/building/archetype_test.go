package building

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

func TestDefaultSpecsValidateAndBuild(t *testing.T) {
	for _, name := range Archetypes() {
		sp, err := DefaultSpec(name)
		if err != nil {
			t.Fatalf("%s: DefaultSpec: %v", name, err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", name, err)
		}
		b, err := sp.New()
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		sensors := sp.Sensors()
		if len(sensors) < 3 {
			t.Fatalf("%s: only %d sensors", name, len(sensors))
		}
		thermostats := 0
		for _, s := range sensors {
			if s.Thermostat {
				thermostats++
			}
		}
		if thermostats == 0 {
			t.Fatalf("%s: no thermostat in deployment", name)
		}
		md := sp.Metadata()
		if md.Archetype != name || md.FloorArea <= 0 || md.Zones < 2 ||
			md.Sensors != len(sensors) || md.DesignOccupancy < 1 {
			t.Fatalf("%s: bad metadata %+v", name, md)
		}
		depth, width := sp.Dims()
		if depth <= 0 || width <= 0 {
			t.Fatalf("%s: bad dims %v x %v", name, depth, width)
		}
		// One step keeps the field finite and probe-able at every sensor.
		in := Inputs{
			HVAC:      hvac.State{Flows: []float64{0.2, 0.2, 0.2, 0.2}, SupplyTemp: 16},
			Occupants: 5,
			LightsOn:  true,
			Ambient:   10,
		}
		if err := b.Step(5*time.Minute, in); err != nil {
			t.Fatalf("%s: Step: %v", name, err)
		}
		for _, s := range sensors {
			v := b.TemperatureAt(s.Pos)
			if math.IsNaN(v) || v < -20 || v > 60 {
				t.Fatalf("%s: sensor %d temp %v out of range", name, s.ID, v)
			}
		}
	}
}

func TestSpecShapeErrors(t *testing.T) {
	if _, err := DefaultSpec("mall"); err == nil {
		t.Fatal("unknown archetype accepted")
	}
	// Missing config.
	sp := Spec{Archetype: ArchetypeOffice}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "no office config") {
		t.Fatalf("missing config not rejected: %v", err)
	}
	// Stray config from another archetype.
	aud := DefaultConfig()
	off := DefaultOfficeConfig()
	sp = Spec{Archetype: ArchetypeAuditorium, Auditorium: &aud, Office: &off}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("stray config not rejected: %v", err)
	}
	if _, err := (Spec{Archetype: "mall"}).New(); err == nil {
		t.Fatal("unknown archetype constructed")
	}
}

// TestValidateReplacesClamps pins the satellite behavior: values the
// simulator used to silently clamp are now construction errors.
func TestValidateReplacesClamps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeatMixBoost = 0.5
	if _, err := NewSimulator(cfg); err == nil || !strings.Contains(err.Error(), "seat mix boost") {
		t.Fatalf("SeatMixBoost < 1 not rejected: %v", err)
	}
	cfg = DefaultConfig()
	cfg.StageMixFactor = 2
	if _, err := NewSimulator(cfg); err == nil || !strings.Contains(err.Error(), "stage mix factor") {
		t.Fatalf("StageMixFactor > 1 not rejected: %v", err)
	}
	cfg = DefaultConfig()
	cfg.StageMixFactor = 0
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("StageMixFactor = 0 not rejected")
	}
	cfg = DefaultConfig()
	cfg.MaxStep = -time.Second
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("negative MaxStep not rejected")
	}
}

func TestOfficeValidate(t *testing.T) {
	c := DefaultOfficeConfig()
	c.ZX, c.ZY = 1, 1
	if err := c.Validate(); err == nil {
		t.Fatal("1-zone office accepted")
	}
	c = DefaultOfficeConfig()
	c.UAScale = []float64{1, 2}
	if err := c.Validate(); err == nil {
		t.Fatal("short UAScale accepted")
	}
	c = DefaultOfficeConfig()
	c.UAScale = make([]float64, c.NumEdges())
	if err := c.Validate(); err == nil {
		t.Fatal("zero UAScale entries accepted")
	}
	for i := range c.UAScale {
		c.UAScale[i] = 1.2
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("full UAScale rejected: %v", err)
	}
}

func TestResidenceOccupancySAP(t *testing.T) {
	c := DefaultResidenceConfig()
	c.FloorArea = 10
	if got := c.Occupancy(); got != 1 {
		t.Fatalf("tiny flat occupancy %v, want 1", got)
	}
	c.FloorArea = 120
	got := c.Occupancy()
	// SAP: 1 + 1.76*(1-exp(-0.000349*106.1^2)) + 0.0013*106.1
	d := 120 - 13.9
	want := 1 + 1.76*(1-math.Exp(-0.000349*d*d)) + 0.0013*d
	if got != want {
		t.Fatalf("occupancy %v, want %v", got, want)
	}
	if got < 2.5 || got > 3.5 {
		t.Fatalf("120 m^2 occupancy %v outside plausible band", got)
	}
}

// TestArchetypeStepDeterminism drives two fresh instances of each
// archetype through the same trajectory and requires bit-identical
// states throughout.
func TestArchetypeStepDeterminism(t *testing.T) {
	for _, name := range Archetypes() {
		sp, err := RandomSpec(name, 42, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sp.New()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := sp.New()
		if err != nil {
			t.Fatal(err)
		}
		probe := sp.Sensors()
		for k := 0; k < 50; k++ {
			in := Inputs{
				HVAC: hvac.State{
					Flows:      []float64{0.1 * float64(k%4), 0.2, 0.15, 0.05},
					SupplyTemp: 14 + float64(k%7),
				},
				Occupants: (k * 13) % 40,
				LightsOn:  k%2 == 0,
				Ambient:   5 + float64(k%20),
			}
			if err := a.Step(2*time.Minute, in); err != nil {
				t.Fatal(err)
			}
			if err := b.Step(2*time.Minute, in); err != nil {
				t.Fatal(err)
			}
			for _, s := range probe {
				ta, tb := a.TemperatureAt(s.Pos), b.TemperatureAt(s.Pos)
				if math.Float64bits(ta) != math.Float64bits(tb) {
					t.Fatalf("%s: step %d sensor %d diverged: %v vs %v", name, k, s.ID, ta, tb)
				}
			}
		}
	}
}

// TestArchetypePhysicsSanity checks the directional physics every
// archetype must share: occupants heat the space, cold supply air
// cools it.
func TestArchetypePhysicsSanity(t *testing.T) {
	for _, name := range Archetypes() {
		sp, err := DefaultSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		warm, _ := sp.New()
		idle, _ := sp.New()
		occIn := Inputs{Occupants: 40, LightsOn: true, Ambient: 20}
		idleIn := Inputs{Ambient: 20}
		for k := 0; k < 60; k++ {
			if err := warm.Step(time.Minute, occIn); err != nil {
				t.Fatal(err)
			}
			if err := idle.Step(time.Minute, idleIn); err != nil {
				t.Fatal(err)
			}
		}
		if warm.MeanTemp() <= idle.MeanTemp() {
			t.Fatalf("%s: occupants did not warm the space (%v <= %v)",
				name, warm.MeanTemp(), idle.MeanTemp())
		}
		cool, _ := sp.New()
		coolIn := Inputs{
			HVAC:    hvac.State{Flows: []float64{0.5, 0.5, 0.5, 0.5}, SupplyTemp: 12},
			Ambient: 30,
		}
		base := cool.MeanTemp()
		for k := 0; k < 120; k++ {
			if err := cool.Step(time.Minute, coolIn); err != nil {
				t.Fatal(err)
			}
		}
		if cool.MeanTemp() >= base+5 {
			t.Fatalf("%s: 12 degC supply failed to hold the space (%v from %v)",
				name, cool.MeanTemp(), base)
		}
	}
}

// TestRandomSpecDeterminism pins the seeding contract: same triple,
// byte-identical spec; different index, a different building.
func TestRandomSpecDeterminism(t *testing.T) {
	for _, name := range Archetypes() {
		a, err := RandomSpec(name, 7, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomSpec(name, 7, 11)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("%s: same (seed,index) produced different specs", name)
		}
		c, err := RandomSpec(name, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		jc, _ := json.Marshal(c)
		if string(ja) == string(jc) {
			t.Fatalf("%s: different index produced identical specs", name)
		}
		// Every randomized spec must validate and construct.
		for i := 0; i < 16; i++ {
			sp, err := RandomSpec(name, 99, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s[%d]: randomized spec invalid: %v", name, i, err)
			}
			if _, err := sp.New(); err != nil {
				t.Fatalf("%s[%d]: randomized spec unbuildable: %v", name, i, err)
			}
		}
	}
	if _, err := RandomSpec("mall", 1, 0); err == nil {
		t.Fatal("unknown archetype randomized")
	}
}

// TestSpecJSONRoundtrip checks Spec is JSON-codable and that unused
// archetype slots stay out of the encoding (cache-key hygiene).
func TestSpecJSONRoundtrip(t *testing.T) {
	sp, err := RandomSpec(ArchetypeOffice, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "auditorium") || strings.Contains(string(data), "residence") {
		t.Fatalf("office spec JSON leaks other archetypes: %s", data)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("roundtrip changed spec:\n%s\n%s", data, data2)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

// benchmarkArchetypeStep times a default archetype's Step as the
// control study runs it: one op is a one-minute Step of six 10 s
// substeps under daytime inputs, and ns/substep is a sixth of it.
func benchmarkArchetypeStep(b *testing.B, archetype string) {
	sp, err := DefaultSpec(archetype)
	if err != nil {
		b.Fatal(err)
	}
	bld, err := sp.New()
	if err != nil {
		b.Fatal(err)
	}
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0, 0.4}, SupplyTemp: 14},
		Occupants: 20,
		LightsOn:  true,
		Ambient:   28,
	}
	for b.Loop() {
		if err := bld.Step(time.Minute, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(6*b.N), "ns/substep")
}

func BenchmarkOfficeStep(b *testing.B)    { benchmarkArchetypeStep(b, ArchetypeOffice) }
func BenchmarkResidenceStep(b *testing.B) { benchmarkArchetypeStep(b, ArchetypeResidence) }
