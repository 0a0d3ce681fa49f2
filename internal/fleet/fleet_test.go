package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/report_n6_seed126.json and testdata/stages_n6_seed126.json from the current code")

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("empty portfolio accepted")
	}
	bad = cfg
	bad.Days = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("too-short trace accepted")
	}
	bad = cfg
	bad.Archetypes = []string{"mall"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown archetype accepted")
	}
	bad = cfg
	bad.Controller = "mpc"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown controller accepted")
	}
}

func TestPlanDeterminismAndCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 9
	a, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same config planned different portfolios")
	}
	archs := building.Archetypes()
	for i, m := range a {
		if want := archs[i%len(archs)]; m.Spec.Archetype != want {
			t.Fatalf("member %d archetype %s, want %s", i, m.Spec.Archetype, want)
		}
		if m.ID != a[i].ID || !strings.HasPrefix(m.ID, "b") {
			t.Fatalf("member %d bad ID %q", i, m.ID)
		}
		if err := m.Spec.Validate(); err != nil {
			t.Fatalf("member %d spec invalid: %v", i, err)
		}
	}
	// A different seed must change the portfolio.
	cfg2 := cfg
	cfg2.Seed++
	c, err := cfg2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds planned identical portfolios")
	}
}

// runFleet executes one fleet run against cacheDir and returns the
// report's canonical JSON plus the engine scoreboard.
func runFleet(t *testing.T, cfg Config, cacheDir string, workers int) ([]byte, []pipeline.Result) {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{CacheDir: cacheDir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data, eng.Results()
}

// TestFleetSmallParallel runs a small mixed fleet with an 8-way
// fan-out — small enough for the -short race gate, concurrent enough
// to exercise the engine's parallel dependency resolution across
// member chains.
func TestFleetSmallParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.Days = 4
	cfg.ControlDays = 1
	cfg.Seed = 5
	a, _ := runFleet(t, cfg, t.TempDir(), 8)
	b, _ := runFleet(t, cfg, t.TempDir(), 8)
	if string(a) != string(b) {
		t.Fatal("two cold 8-worker runs produced different reports")
	}
}

// TestFleetShortDataIsInsufficientData pins the short-data failure's
// type: the seed-17 fleet's residence b0002 has only 3 usable occupied
// windows, and the error that aborts the run must say so through
// sysid.ErrInsufficientData, not just in its text.
func TestFleetShortDataIsInsufficientData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.Seed = 17
	cfg.Days = 4
	cfg.ControlDays = 1
	eng, err := pipeline.New(pipeline.Options{CacheDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = Run(context.Background(), eng, cfg)
	if err == nil {
		t.Fatal("seed-17 fleet completed; want b0002's short-data failure")
	}
	if !errors.Is(err, sysid.ErrInsufficientData) {
		t.Fatalf("err = %v, want one wrapping sysid.ErrInsufficientData", err)
	}
	for _, want := range []string{"b0002/sysid", "only 3 usable occupied windows; need at least 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %q", err, want)
		}
	}
}

// stageEntry pins one stage artifact's content.
type stageEntry struct {
	Digest artifact.Digest `json:"digest"`
	Bytes  int64           `json:"bytes"`
}

// stageDiff lists, one line each in name order, every stage whose
// content differs between want and got, including stages only one
// side has.
func stageDiff(want, got map[string]stageEntry) []string {
	names := make([]string, 0, len(want)+len(got))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		w, inWant := want[name]
		g, inGot := got[name]
		switch {
		case !inGot:
			out = append(out, fmt.Sprintf("%s: gone (was %s, %d B)", name, w.Digest.Short(), w.Bytes))
		case !inWant:
			out = append(out, fmt.Sprintf("%s: new (%s, %d B)", name, g.Digest.Short(), g.Bytes))
		case w != g:
			out = append(out, fmt.Sprintf("%s: %s, %d B -> %s, %d B", name, w.Digest.Short(), w.Bytes, g.Digest.Short(), g.Bytes))
		}
	}
	return out
}

// TestFleetReportGolden pins a small fleet's report, and the content
// of every stage artifact behind it, to recorded bytes. Speeding up a
// stage, or computing a value once instead of twice, must not move a
// single model, evaluation or summary; the stage pins also catch a
// change to an intermediate artifact (a frame, a dataset) that the
// aggregate report does not show. A change that has to move them
// re-pins testdata/report_n6_seed126.json and
// testdata/stages_n6_seed126.json with -update-golden and names the
// stages it moved.
func TestFleetReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet run")
	}
	cfg := DefaultConfig()
	cfg.N = 6
	cfg.Seed = 126
	cfg.Days = 4
	cfg.ControlDays = 1
	got, results := runFleet(t, cfg, t.TempDir(), 2)
	gotStages := make(map[string]stageEntry, len(results))
	for _, r := range results {
		gotStages[r.Stage] = stageEntry{Digest: r.Digest, Bytes: r.Bytes}
	}
	reportPath := filepath.Join("testdata", "report_n6_seed126.json")
	stagesPath := filepath.Join("testdata", "stages_n6_seed126.json")
	if *updateGolden {
		stages, err := json.MarshalIndent(gotStages, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stagesPath, append(stages, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s and %s (%d stages)", reportPath, stagesPath, len(gotStages))
		return
	}

	data, err := os.ReadFile(stagesPath)
	if err != nil {
		t.Fatalf("reading stage pins (regenerate with -update-golden): %v", err)
	}
	var wantStages map[string]stageEntry
	if err := json.Unmarshal(data, &wantStages); err != nil {
		t.Fatal(err)
	}
	if moved := stageDiff(wantStages, gotStages); len(moved) > 0 {
		t.Errorf("%d of %d stages differ from %s:\n%s",
			len(moved), len(wantStages), stagesPath, strings.Join(moved, "\n"))
	}

	want, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("report differs from %s at byte %d:\ngot  ...%s\nwant ...%s",
			reportPath, i, got[max(0, i-60):min(len(got), i+60)], want[max(0, i-60):min(len(want), i+60)])
	}
}

// TestFleetReportDeterminism is the tentpole acceptance gate: a
// 32-building mixed-archetype fleet completes the full pipeline and
// its report is byte-identical across worker counts and across
// cold/warm runs — and the warm run is pure cache hits, at least
// minWarmSpeedup times faster than the cold serial run. On a host
// with at least minParCPUs cores, 8 workers must also beat serial by
// minParSpeedup; fewer cores cannot reach that factor.
func TestFleetReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute fleet run")
	}
	const (
		minWarmSpeedup = 10.0
		minParSpeedup  = 3.0
		minParCPUs     = 4
	)
	cfg := DefaultConfig()
	cfg.N = 32
	cfg.Seed = 7

	timed := func(dir string, workers int) ([]byte, []pipeline.Result, time.Duration) {
		t0 := time.Now()
		rep, res := runFleet(t, cfg, dir, workers)
		return rep, res, time.Since(t0)
	}
	dirA := t.TempDir()
	cold1, _, wallCold1 := timed(dirA, 1)
	warm4, res4, wallWarm4 := timed(dirA, 4)
	dirB := t.TempDir()
	cold8, _, wallCold8 := timed(dirB, 8)

	if string(cold1) != string(warm4) {
		t.Fatal("warm 4-worker report differs from cold serial report")
	}
	if string(cold1) != string(cold8) {
		t.Fatal("cold 8-worker report differs from cold serial report")
	}
	for _, r := range res4 {
		if !r.CacheHit {
			t.Fatalf("warm re-run recomputed stage %s", r.Stage)
		}
	}
	warmSpeedup := float64(wallCold1) / float64(wallWarm4)
	parSpeedup := float64(wallCold1) / float64(wallCold8)
	t.Logf("cold serial %v, warm 4 workers %v (%.0fx), cold 8 workers %v (%.1fx)",
		wallCold1, wallWarm4, warmSpeedup, wallCold8, parSpeedup)
	if warmSpeedup < minWarmSpeedup {
		t.Errorf("warm re-run is %.1fx faster than cold, below the %.0fx floor", warmSpeedup, minWarmSpeedup)
	}
	if runtime.NumCPU() >= minParCPUs && parSpeedup < minParSpeedup {
		t.Errorf("8 workers are %.1fx faster than serial, below the %.0fx floor", parSpeedup, minParSpeedup)
	}

	var rep Report
	if err := json.Unmarshal(cold1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Buildings) != cfg.N {
		t.Fatalf("report carries %d buildings, want %d", len(rep.Buildings), cfg.N)
	}
	total := 0
	for arch, st := range rep.PerArchetype {
		total += st.Count
		for name, d := range map[string]Distribution{
			"model_rmse":      st.ModelRMSE,
			"violation_hours": st.ComfortViolationHours,
			"cooling_kwh":     st.CoolingKWh,
		} {
			for _, v := range []float64{float64(d.P50), float64(d.P90), float64(d.P99)} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s %s distribution not finite/non-negative: %+v", arch, name, d)
				}
			}
			if d.P50 > d.P99 {
				t.Fatalf("%s %s percentiles out of order: %+v", arch, name, d)
			}
		}
	}
	if total != cfg.N {
		t.Fatalf("per-archetype counts sum to %d, want %d", total, cfg.N)
	}
	for i, br := range rep.Buildings {
		if br.Index != i {
			t.Fatalf("buildings not sorted by index at %d: %+v", i, br)
		}
		if br.ModelRMSE <= 0 || math.IsNaN(float64(br.ModelRMSE)) {
			t.Fatalf("%s model RMSE %v", br.ID, br.ModelRMSE)
		}
		if br.OccupiedHours <= 0 {
			t.Fatalf("%s occupied hours %v", br.ID, br.OccupiedHours)
		}
	}
}
