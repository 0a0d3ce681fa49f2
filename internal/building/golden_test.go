package building

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata/auditorium_golden.json and testdata/archetype_golden.json from the current steppers")

// trajectory is one pinned run: per checkpoint, the temperature at
// each installed sensor and the zone mean. Floats are stored as exact
// IEEE-754 bit patterns in hex, so the comparison is exact, not
// tolerance-based.
type trajectory struct {
	SensorTemps [][]string `json:"sensor_temps_bits"`
	MeanTemp    []string   `json:"mean_temp_bits"`
}

// checkpoint appends b's temperature at each sensor and its mean.
func (tr *trajectory) checkpoint(b Building, sensors []SensorSpec) {
	row := make([]string, len(sensors))
	for i, sp := range sensors {
		row[i] = bits(b.TemperatureAt(sp.Pos))
	}
	tr.SensorTemps = append(tr.SensorTemps, row)
	tr.MeanTemp = append(tr.MeanTemp, bits(b.MeanTemp()))
}

// golden is a golden file's content, which names its trajectories.
type golden interface{ runs() map[string]trajectory }

// goldenFixture is auditorium_golden.json: the default auditorium's
// trajectory, with Steps its checkpoint count.
type goldenFixture struct {
	Steps int `json:"steps"`
	trajectory
}

func (f goldenFixture) runs() map[string]trajectory {
	return map[string]trajectory{"auditorium": f.trajectory}
}

// archetypeRuns is archetype_golden.json: the office and residence
// trajectories by building and Step length.
type archetypeRuns map[string]trajectory

func (r archetypeRuns) runs() map[string]trajectory { return r }

// checkGolden holds got to the golden file at path, decoded into want,
// exact to the last bit of every checkpoint; with -update-golden it
// rewrites the file from got instead. The golden files pin the
// numerics that building.StepperRevision names, and the pipeline's
// cache keys carry that revision: a change that has to re-pin them
// also bumps StepperRevision, so caches written under the old numerics
// miss, and lists every moved number in CHANGES.md.
func checkGolden(t *testing.T, path string, got, want golden) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	g, w := got.runs(), want.runs()
	if len(g) != len(w) {
		t.Fatalf("%d trajectories, golden has %d", len(g), len(w))
	}
	for run, wt := range w {
		gt, ok := g[run]
		if !ok {
			t.Fatalf("golden run %s not produced", run)
		}
		if len(gt.MeanTemp) != len(wt.MeanTemp) {
			t.Fatalf("%s: %d checkpoints, want %d", run, len(gt.MeanTemp), len(wt.MeanTemp))
		}
		for k := range wt.MeanTemp {
			if len(gt.SensorTemps[k]) != len(wt.SensorTemps[k]) {
				t.Fatalf("%s checkpoint %d: %d sensors, want %d", run, k+1, len(gt.SensorTemps[k]), len(wt.SensorTemps[k]))
			}
			for i, wb := range wt.SensorTemps[k] {
				if gb := gt.SensorTemps[k][i]; gb != wb {
					t.Fatalf("%s checkpoint %d sensor %d: got %v (bits %s), want %v (bits %s): the stepper's numerics changed",
						run, k+1, i+1, unbits(gb), gb, unbits(wb), wb)
				}
			}
			if gt.MeanTemp[k] != wt.MeanTemp[k] {
				t.Fatalf("%s checkpoint %d mean: got %v, want %v", run, k+1, unbits(gt.MeanTemp[k]), unbits(wt.MeanTemp[k]))
			}
		}
	}
}

func bits(v float64) string   { return strconv.FormatUint(math.Float64bits(v), 16) }
func unbits(s string) float64 { u, _ := strconv.ParseUint(s, 16, 64); return math.Float64frombits(u) }

// goldenTrajectory drives the default auditorium through a
// deterministic 12-hour scenario — plant off, then a stepped occupancy
// and flow profile with a diurnal ambient — checkpointing every 30
// minutes. No randomness anywhere: the trajectory is a pure function
// of the simulator's arithmetic.
func goldenTrajectory(t *testing.T, record func(k int, sim *Simulator, sensors []SensorSpec)) {
	t.Helper()
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensors := AuditoriumSensors()
	const step = 30 * time.Second
	const perCheckpoint = 60 // 30 minutes of 30s steps
	const checkpoints = 24   // 12 hours
	for k := 0; k < checkpoints; k++ {
		for i := 0; i < perCheckpoint; i++ {
			minute := float64(k*perCheckpoint+i) * step.Seconds() / 60
			hour := 6 + minute/60 // scenario runs 06:00-18:00
			occ := 0
			if hour >= 9 && hour < 11 {
				occ = 35
			} else if hour >= 12 && hour < 14 {
				occ = 80
			}
			flow := 0.1
			if hour >= 8 {
				flow = 0.25 + 0.15*math.Sin(2*math.Pi*minute/180)
				if flow < 0.05 {
					flow = 0.05
				}
			}
			supply := 20.0
			if occ > 0 {
				supply = 14.0
			}
			ambient := 8 + 6*math.Sin(2*math.Pi*(hour-9)/24)
			in := Inputs{
				HVAC: hvac.State{
					Flows:      []float64{flow, flow, flow * 0.8, flow * 1.2},
					SupplyTemp: supply,
				},
				Occupants: occ,
				LightsOn:  occ > 0,
				Ambient:   ambient,
			}
			if err := sim.Step(step, in); err != nil {
				t.Fatal(err)
			}
		}
		record(k, sim, sensors)
	}
}

// TestAuditoriumGolden pins the default auditorium's trajectory
// under goldenTrajectory's scenario, exact to the last float bit.
func TestAuditoriumGolden(t *testing.T) {
	var got goldenFixture
	goldenTrajectory(t, func(k int, sim *Simulator, sensors []SensorSpec) {
		got.Steps++
		got.checkpoint(sim, sensors)
	})
	checkGolden(t, filepath.Join("testdata", "auditorium_golden.json"), got, &goldenFixture{})
}

// archetypeGoldenSpecs are the pinned buildings: each default, one
// randomized member of each archetype (a 3x2 office with a per-edge
// conductance scale, a three-node residence), a one-row office (the
// default with ZY = 1, a chain of zones like the residence's) and an
// unglazed residence (the default with no window, so no solar gain).
func archetypeGoldenSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	specs := make(map[string]Spec)
	for _, name := range []string{ArchetypeOffice, ArchetypeResidence} {
		sp, err := DefaultSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[name+"/default"] = sp
	}
	for name, index := range map[string]int{ArchetypeOffice: 3, ArchetypeResidence: 0} {
		sp, err := RandomSpec(name, 24, index)
		if err != nil {
			t.Fatal(err)
		}
		specs[name+"/random"] = sp
	}
	row := DefaultOfficeConfig()
	row.ZY = 1
	specs["office/one-row"] = Spec{Archetype: ArchetypeOffice, Office: &row}
	dark := DefaultResidenceConfig()
	dark.WindowFrac = 0
	specs["residence/unglazed"] = Spec{Archetype: ArchetypeResidence, Residence: &dark}
	return specs
}

// archetypeScenario is the golden's deterministic day, a pure function
// of the minute since midnight: the plant off until 03:00, then VAV
// flows stepped every 90 minutes (the fourth damper closed half the
// time), occupancy stepped 08:00-18:00 with lights and cold supply
// air while occupied, and a diurnal ambient.
func archetypeScenario(minute int) Inputs {
	hour := float64(minute) / 60
	in := Inputs{Ambient: 8 + 6*math.Sin(2*math.Pi*(hour-9)/24)}
	if hour < 3 {
		in.HVAC = hvac.State{Flows: []float64{0, 0, 0, 0}, SupplyTemp: 20}
		return in
	}
	levels := [...]float64{0.1, 0.3, 0.05, 0.45, 0.2}
	band := minute / 90
	f := levels[band%len(levels)]
	closed := 0.0
	if band%2 == 0 {
		closed = 0.6 * f
	}
	in.HVAC = hvac.State{Flows: []float64{f, 0.8 * f, 1.2 * f, closed}, SupplyTemp: 18}
	if hour >= 8 && hour < 18 {
		in.Occupants = [...]int{12, 30, 5, 22, 0}[(minute/120)%5]
		in.LightsOn = true
		in.HVAC.SupplyTemp = 14
	}
	return in
}

// TestArchetypeGolden pins the office and residence steppers to their
// trajectories, exact to the last float bit: each pinned building runs
// archetypeScenario for 24 hours in 1-minute and in 2-minute Steps,
// checkpointed every hour.
func TestArchetypeGolden(t *testing.T) {
	got := make(archetypeRuns)
	for name, sp := range archetypeGoldenSpecs(t) {
		sensors := sp.Sensors()
		for _, stepMin := range []int{1, 2} {
			b, err := sp.New()
			if err != nil {
				t.Fatal(err)
			}
			var tr trajectory
			for minute := 0; minute < 24*60; minute += stepMin {
				if err := b.Step(time.Duration(stepMin)*time.Minute, archetypeScenario(minute)); err != nil {
					t.Fatal(err)
				}
				if (minute+stepMin)%60 == 0 {
					tr.checkpoint(b, sensors)
				}
			}
			got[name+"/"+strconv.Itoa(stepMin)+"m"] = tr
		}
	}
	checkGolden(t, filepath.Join("testdata", "archetype_golden.json"), got, &archetypeRuns{})
}
