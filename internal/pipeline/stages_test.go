package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/cluster"
	"auditherm/internal/control"
	"auditherm/internal/dataset"
	"auditherm/internal/sysid"
)

// smallDatasetConfig is a short trace that still yields enough usable
// occupied windows for identification and clustering.
func smallDatasetConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	// Keep the short trace mostly gap-free so enough occupied windows
	// survive the usability filter.
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	return cfg
}

// TestPaperStagesColdWarm runs the full Simulate -> Frame -> SysID /
// Cluster -> Select DAG cold, then warm, and checks the warm run is
// served entirely from the cache with identical artifact digests, at
// least minWarmSpeedup times faster than the cold run.
func TestPaperStagesColdWarm(t *testing.T) {
	const minWarmSpeedup = 5.0
	if testing.Short() {
		t.Skip("runs the co-simulation")
	}
	dir := t.TempDir()
	ctx := context.Background()
	cfg := smallDatasetConfig()
	idCfg := IdentifyConfig{
		Order: sysid.FirstOrder, Mode: dataset.Occupied,
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		MaxMissing: 0.5,
	}
	clCfg := ClusterConfig{
		Metric: cluster.Euclidean, K: 0,
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		Seed: 11,
	}
	selCfg := SelectConfig{
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		Seeds: 3, GPMode: "fast",
	}

	type outcome struct {
		rms     float64
		k       int
		methods int
		digests map[string]string
		hits    int
		wall    time.Duration
	}
	run := func() outcome {
		t0 := time.Now()
		e, err := New(Options{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sim := Simulate(e, cfg)
		frame := DatasetFrame(e, sim)
		model := Identify(e, frame, idCfg)
		eval := Evaluate(e, frame, model, idCfg, time.Hour)
		clusters := ClusterSensors(e, frame, clCfg)
		sel := SelectRepresentatives(e, frame, clusters, selCfg)

		ev, err := eval.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := sel.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		rms, err := ev.RMSPercentile(90)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{rms: rms, methods: len(sa.Methods), k: sa.K, digests: map[string]string{}, wall: wall}
		for _, r := range e.Results() {
			out.digests[r.Stage] = string(r.Digest)
			if r.CacheHit {
				out.hits++
			}
		}
		return out
	}

	cold := run()
	if cold.hits != 0 {
		t.Errorf("cold run had %d hits", cold.hits)
	}
	if len(cold.digests) != 6 {
		t.Errorf("cold run resolved %d stages, want 6: %v", len(cold.digests), cold.digests)
	}
	if math.IsNaN(cold.rms) || cold.rms <= 0 {
		t.Errorf("cold RMS %v", cold.rms)
	}
	if cold.k < 2 {
		t.Errorf("cluster count %d", cold.k)
	}
	if cold.methods != 4 {
		t.Errorf("selection methods %d, want 4 (SMS/SRS/RS/GP)", cold.methods)
	}

	warm := run()
	if warm.hits != len(warm.digests) {
		t.Errorf("warm run: %d hits of %d stages", warm.hits, len(warm.digests))
	}
	if warm.rms != cold.rms {
		t.Errorf("warm RMS %v != cold %v", warm.rms, cold.rms)
	}
	for stage, d := range cold.digests {
		if warm.digests[stage] != d {
			t.Errorf("stage %s digest drifted: %s vs %s", stage, warm.digests[stage], d)
		}
	}
	speedup := float64(cold.wall) / float64(warm.wall)
	t.Logf("cold %v, warm %v: %.0fx", cold.wall, warm.wall, speedup)
	if speedup < minWarmSpeedup {
		t.Errorf("warm rerun is %.1fx faster than cold, below the %.0fx floor", speedup, minWarmSpeedup)
	}

	// Mutating the clustering config must leave simulate/frame/sysid
	// warm and recompute cluster + select only.
	e, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(e, cfg)
	frame := DatasetFrame(e, sim)
	clCfg2 := clCfg
	clCfg2.Metric = cluster.Correlation
	clusters := ClusterSensors(e, frame, clCfg2)
	sel := SelectRepresentatives(e, frame, clusters, selCfg)
	if _, err := sel.Get(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Results() {
		switch r.Stage {
		case "simulate", "frame":
			if !r.CacheHit {
				t.Errorf("stage %s recomputed after unrelated config change", r.Stage)
			}
		case "cluster", "select":
			if r.CacheHit {
				t.Errorf("stage %s not invalidated by metric change", r.Stage)
			}
		}
	}
}

// TestControlRunCachedAndCustomized checks the control stage caches
// plain runs and refuses to cache customized (side-effectful) ones.
func TestControlRunCachedAndCustomized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the control loop")
	}
	dir := t.TempDir()
	ctx := context.Background()
	cc := ControlConfig{Controller: "deadband", Days: 2, Setpoint: 22.5, Seed: 7}

	run := func() (*ControlSummary, Result) {
		e, err := New(Options{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		n := ControlRun(e, cc, nil)
		s, err := n.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := n.Result()
		return s, r
	}
	cold, rCold := run()
	if rCold.CacheHit {
		t.Error("cold control run hit")
	}
	warm, rWarm := run()
	if !rWarm.CacheHit {
		t.Error("warm control run missed")
	}
	if *warm != *cold {
		t.Errorf("warm summary %+v != cold %+v", warm, cold)
	}
	if cold.Controller != "deadband-thermostat" {
		t.Errorf("controller %q", cold.Controller)
	}

	e, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n := ControlRun(e, cc, func(lc *control.LoopConfig) error { return nil })
	if _, err := n.Get(ctx); err != nil {
		t.Fatal(err)
	}
	if r, _ := n.Result(); r.Key != "" || r.CacheHit {
		t.Errorf("customized control run was cached: %+v", r)
	}
}

// TestStagesKeyStepperRevision pins building.StepperRevision in the
// simulate and control stages' keys: a cache written under other
// stepper numerics must miss rather than serve their trajectories.
func TestStagesKeyStepperRevision(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dc := smallDatasetConfig()
	cc := ControlConfig{Controller: "deadband", Days: 2, Setpoint: 22.5, Seed: 7}
	for _, tc := range []struct {
		name   string
		got    string
		config map[string]string
	}{
		{"simulate", SimulateNamed(e, "simulate", dc).n.configHash, map[string]string{"dataset_config": hashJSON(dc)}},
		{"control", ControlRunNamed(e, "control", cc, nil).n.configHash, map[string]string{"control_config": hashJSON(cc)}},
	} {
		if tc.got == artifact.HashConfig(tc.config) {
			t.Errorf("%s: key ignores the stepper revision", tc.name)
		}
		tc.config["stepper"] = building.StepperRevision
		if tc.got != artifact.HashConfig(tc.config) {
			t.Errorf("%s: key is not its config plus stepper=%s", tc.name, building.StepperRevision)
		}
	}
}

func TestLoadFrameMissingFile(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrame(e, "/nonexistent/trace.csv"); err == nil {
		t.Error("missing CSV accepted")
	}
}

func TestControlRunUnknownController(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := ControlRun(e, ControlConfig{Controller: "pid", Days: 1}, nil)
	if _, err := n.Get(context.Background()); err == nil {
		t.Error("unknown controller accepted")
	}
}
