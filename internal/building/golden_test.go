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
	"regenerate testdata/auditorium_golden.json from the current simulator")

// goldenFixture pins the auditorium archetype's trajectory bit-for-bit.
// It was captured from the pre-archetype-refactor simulator; the test
// failing means the refactor changed the auditorium's numerics, which
// the archetype work must never do. Floats are stored as exact IEEE-754
// bit patterns so the comparison is exact, not tolerance-based.
type goldenFixture struct {
	// Steps is the number of recorded checkpoints.
	Steps int `json:"steps"`
	// SensorTemps[k] holds the 27 sensor temperatures at checkpoint k,
	// as uint64 float bits rendered in hex.
	SensorTemps [][]string `json:"sensor_temps_bits"`
	// MeanTemp holds the per-checkpoint room mean (bit patterns).
	MeanTemp []string `json:"mean_temp_bits"`
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

// TestAuditoriumGolden locks the auditorium archetype to its
// pre-refactor trajectory, exact to the last float bit.
func TestAuditoriumGolden(t *testing.T) {
	path := filepath.Join("testdata", "auditorium_golden.json")

	var got goldenFixture
	goldenTrajectory(t, func(k int, sim *Simulator, sensors []SensorSpec) {
		got.Steps++
		row := make([]string, len(sensors))
		for i, sp := range sensors {
			row[i] = bits(sim.TemperatureAt(sp.Pos))
		}
		got.SensorTemps = append(got.SensorTemps, row)
		got.MeanTemp = append(got.MeanTemp, bits(sim.MeanTemp()))
	})

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(&got, "", " ")
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
	var want goldenFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.Steps != want.Steps {
		t.Fatalf("checkpoints: got %d, want %d", got.Steps, want.Steps)
	}
	for k := 0; k < want.Steps; k++ {
		for i := range want.SensorTemps[k] {
			if got.SensorTemps[k][i] != want.SensorTemps[k][i] {
				t.Fatalf("checkpoint %d sensor %d: got %v (bits %s), want %v (bits %s) — auditorium numerics changed",
					k, i+1, unbits(got.SensorTemps[k][i]), got.SensorTemps[k][i],
					unbits(want.SensorTemps[k][i]), want.SensorTemps[k][i])
			}
		}
		if got.MeanTemp[k] != want.MeanTemp[k] {
			t.Fatalf("checkpoint %d mean temp: got %v, want %v", k, unbits(got.MeanTemp[k]), unbits(want.MeanTemp[k]))
		}
	}
}
