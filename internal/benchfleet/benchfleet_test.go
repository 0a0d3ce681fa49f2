// Package benchfleet records the fleet-scale pipeline benchmark into
// BENCH_fleet.json at the repository root. It is a test package only:
// run via
//
//	make bench-fleet
//
// (equivalently: go test ./internal/benchfleet -run RecordFleetBench
// -record-fleet-bench). It runs a mixed-archetype fleet cold against
// an empty artifact store at 1 and 8 workers, then warm over the
// serial run's store, and enforces three gates before writing the
// file: the report bytes must be identical across every run, the warm
// re-run must be at least 10x faster than cold, and — on machines with
// at least 4 CPUs — the 8-worker cold run must be at least 3x faster
// than serial (on smaller hosts the parallel gate is recorded but not
// enforced; the file's "note" field says so).
package benchfleet

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/fleet"
	"auditherm/internal/pipeline"
)

var recordFleetBench = flag.Bool("record-fleet-bench", false,
	"measure the fleet cold/warm/parallel matrix and write BENCH_fleet.json at the repo root")

const (
	// minWarmSpeedup gates the warm re-run: everything must come from
	// the artifact store.
	minWarmSpeedup = 10.0
	// minParSpeedup gates the 8-worker cold run against serial —
	// enforced only when the machine has at least minParCPUs cores
	// (fewer cores cannot reach the factor by construction).
	minParSpeedup = 3.0
	minParCPUs    = 4
	// fleetN is the benchmark portfolio size.
	fleetN = 16
)

func benchConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.N = fleetN
	cfg.Seed = 21
	cfg.Days = 4
	cfg.ControlDays = 1
	return cfg
}

type runRow struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	Warm    bool   `json:"warm"`
	WallMS  int64  `json:"wall_ms"`
}

type benchFile struct {
	Generated   string   `json:"generated"`
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"num_cpu"`
	Note        string   `json:"note"`
	Reproduce   string   `json:"reproduce"`
	Buildings   int      `json:"buildings"`
	WarmSpeedup float64  `json:"warm_speedup"`
	ParSpeedup  float64  `json:"par_speedup_8_workers"`
	BytesSame   bool     `json:"report_bytes_identical"`
	AllWarmHits bool     `json:"warm_all_cache_hits"`
	Runs        []runRow `json:"runs"`
	ReportBytes int      `json:"report_bytes"`
	TotalStages int      `json:"stages_per_run"`
}

// runFleet executes one fleet run and returns the report bytes, the
// wall time and the engine scoreboard.
func runFleet(ctx context.Context, cacheDir string, workers int) ([]byte, time.Duration, []pipeline.Result, error) {
	eng, err := pipeline.New(pipeline.Options{CacheDir: cacheDir, Workers: workers})
	if err != nil {
		return nil, 0, nil, err
	}
	defer eng.Close()
	t0 := time.Now()
	rep, err := fleet.Run(ctx, eng, benchConfig())
	if err != nil {
		return nil, 0, nil, err
	}
	wall := time.Since(t0)
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, 0, nil, err
	}
	return data, wall, eng.Results(), nil
}

// TestRecordFleetBench measures the matrix and writes BENCH_fleet.json,
// refusing if a gate fails.
func TestRecordFleetBench(t *testing.T) {
	if !*recordFleetBench {
		t.Skip("run with -record-fleet-bench (make bench-fleet) to record")
	}
	ctx := context.Background()
	dirSerial := t.TempDir()
	dirPar := t.TempDir()

	coldSerial, wallSerial, _, err := runFleet(ctx, dirSerial, 1)
	if err != nil {
		t.Fatalf("cold serial run: %v", err)
	}
	coldPar, wallPar, _, err := runFleet(ctx, dirPar, 8)
	if err != nil {
		t.Fatalf("cold 8-worker run: %v", err)
	}
	warm, wallWarm, warmRes, err := runFleet(ctx, dirSerial, 8)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}

	bytesSame := string(coldSerial) == string(coldPar) && string(coldSerial) == string(warm)
	if !bytesSame {
		t.Error("fleet report bytes differ across worker counts or cold/warm")
	}
	allHits := true
	for _, r := range warmRes {
		if !r.CacheHit {
			allHits = false
			t.Errorf("warm run recomputed stage %s", r.Stage)
		}
	}
	warmSpeedup := float64(wallSerial) / float64(wallWarm)
	if warmSpeedup < minWarmSpeedup {
		t.Errorf("warm speedup %.1fx below the %.0fx gate (cold %v, warm %v)",
			warmSpeedup, minWarmSpeedup, wallSerial, wallWarm)
	}
	parSpeedup := float64(wallSerial) / float64(wallPar)
	note := fmt.Sprintf("%d-building mixed-archetype fleet (auditorium/office/residence), full simulate->sysid->cluster->select->control per building; report bytes identical across 1/8 workers and cold/warm", fleetN)
	if runtime.NumCPU() >= minParCPUs {
		if parSpeedup < minParSpeedup {
			t.Errorf("8-worker speedup %.1fx below the %.0fx gate (serial %v, parallel %v)",
				parSpeedup, minParSpeedup, wallSerial, wallPar)
		}
	} else {
		note = fmt.Sprintf("MEASURED ON A %d-CPU MACHINE: the 8-worker run cannot reach the %.0fx parallel gate by construction, so par_speedup_8_workers is recorded but not enforced. Re-run `make bench-fleet` on a machine with >= %d cores. The byte-identity and warm-cache gates hold regardless. ", runtime.NumCPU(), minParSpeedup, minParCPUs) + note
	}
	if t.Failed() {
		t.Fatal("gates failed; BENCH_fleet.json not written")
	}

	out := benchFile{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Note:        note,
		Reproduce:   "make bench-fleet  (or: go test ./internal/benchfleet -run RecordFleetBench -record-fleet-bench)",
		Buildings:   fleetN,
		WarmSpeedup: warmSpeedup,
		ParSpeedup:  parSpeedup,
		BytesSame:   bytesSame,
		AllWarmHits: allHits,
		Runs: []runRow{
			{Name: "cold", Workers: 1, WallMS: wallSerial.Milliseconds()},
			{Name: "cold", Workers: 8, WallMS: wallPar.Milliseconds()},
			{Name: "warm", Workers: 8, Warm: true, WallMS: wallWarm.Milliseconds()},
		},
		ReportBytes: len(coldSerial),
		TotalStages: len(warmRes),
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFileAtomic("../../BENCH_fleet.json", func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %v, 8-worker %v (%.1fx), warm %v (%.0fx); wrote BENCH_fleet.json",
		wallSerial, wallPar, parSpeedup, wallWarm, warmSpeedup)
}
