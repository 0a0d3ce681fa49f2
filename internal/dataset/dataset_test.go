package dataset

import (
	"math"
	"testing"
	"time"

	"auditherm/internal/mat"
	"auditherm/internal/timeseries"
)

// smallConfig keeps unit tests fast: two weeks at a coarser physics
// step.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 1
	cfg.NumShortOutages = 2
	// Node failures are probabilistic per node; keep the two-week tests
	// deterministic about which mechanism produces their gaps.
	cfg.NodeFailureProb = 0
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func TestGenerateValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"zero sim step", func(c *Config) { c.SimStep = 0 }},
		{"grid below sim", func(c *Config) { c.GridStep = c.SimStep / 2 }},
	}
	for _, c := range cases {
		cfg := smallConfig()
		c.mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := smallConfig()
	d := mustGenerate(t, cfg)
	wantSteps := cfg.Days * 24 * 4 // 15-minute grid
	if d.Frame.Grid.N != wantSteps {
		t.Errorf("grid steps = %d, want %d", d.Frame.Grid.N, wantSteps)
	}
	if got := len(d.Sensors); got != 27 {
		t.Errorf("sensors = %d, want 27", got)
	}
	// 27 temps + 4 VAVs + occ + light + ambient + supply.
	if got := len(d.Frame.Channels); got != 35 {
		t.Errorf("channels = %d, want 35", got)
	}
	if got := len(d.InputNames()); got != 7 {
		t.Errorf("inputs = %d, want 7 (4 VAV + occ + light + ambient)", got)
	}
	if got := len(d.ThermostatNames()); got != 2 {
		t.Errorf("thermostats = %d, want 2", got)
	}
	if got := len(d.WirelessNames()); got != 25 {
		t.Errorf("wireless = %d, want 25", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 4
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	for i := range a.Frame.Values {
		for k := range a.Frame.Values[i] {
			va, vb := a.Frame.Values[i][k], b.Frame.Values[i][k]
			if math.IsNaN(va) != math.IsNaN(vb) || (!math.IsNaN(va) && va != vb) {
				t.Fatalf("channel %s step %d differs: %v vs %v", a.Frame.Channels[i], k, va, vb)
			}
		}
	}
}

func TestTemperaturesPlausible(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	for i, name := range d.SensorNames() {
		for k, v := range d.Frame.Values[i] {
			if math.IsNaN(v) {
				continue
			}
			if v < 10 || v > 35 {
				t.Fatalf("sensor %s step %d reads %v degC", name, k, v)
			}
		}
	}
}

func TestSensorTracksTruth(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	// Stored sensor values should track ground truth within calibration
	// + threshold (< 1 degC).
	for i := range d.SensorNames() {
		var worst float64
		for k := range d.Frame.Values[i] {
			v := d.Frame.Values[i][k]
			truth := d.Truth.Values[i][k]
			if math.IsNaN(v) || math.IsNaN(truth) {
				continue
			}
			if e := math.Abs(v - truth); e > worst {
				worst = e
			}
		}
		if worst > 1.2 {
			t.Errorf("sensor %s deviates %v degC from truth", d.SensorNames()[i], worst)
		}
	}
}

func TestOutagesProduceGaps(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	if len(d.Outages) == 0 {
		t.Fatal("no outages generated")
	}
	frac := d.Frame.MissingFraction()
	if frac <= 0 {
		t.Error("expected missing data from outages")
	}
	if frac > 0.6 {
		t.Errorf("missing fraction %v implausibly high", frac)
	}
	// Steps strictly inside a long outage must be missing for sensors.
	o := d.Outages[0]
	mid := o.Start.Add(o.End.Sub(o.Start) / 2)
	if k, ok := d.Frame.Grid.Index(mid); ok && mid.Sub(o.Start) > d.Config.MaxStale {
		s0, err := d.Frame.Channel(d.SensorNames()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(s0[k]) {
			t.Errorf("sensor reading %v present mid-outage at %v", s0[k], mid)
		}
	}
}

func TestWindowBounds(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	occ, err := d.Window(Occupied, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 06:00-21:00 on a 15-minute grid: steps 24..84.
	if occ.Start != 24 || occ.End != 84 {
		t.Errorf("occupied window = %+v, want [24,84)", occ)
	}
	un, err := d.Window(Unoccupied, 0)
	if err != nil {
		t.Fatal(err)
	}
	if un.Start != 84 || un.End != 96+24 {
		t.Errorf("unoccupied window = %+v, want [84,120)", un)
	}
	// Last day's unoccupied window clips at the grid end.
	last, err := d.Window(Unoccupied, d.Config.Days-1)
	if err != nil {
		t.Fatal(err)
	}
	if last.End != d.Frame.Grid.N {
		t.Errorf("last unoccupied window end = %d, want %d", last.End, d.Frame.Grid.N)
	}
	if _, err := d.Window(Occupied, -1); err == nil {
		t.Error("negative day accepted")
	}
	if _, err := d.Window(Occupied, d.Config.Days); err == nil {
		t.Error("day beyond trace accepted")
	}
	if _, err := d.Window(Mode(9), 0); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if Occupied.String() != "occupied" || Unoccupied.String() != "unoccupied" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestUsableDaysAndSplit(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	days, err := d.UsableDays(Occupied, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) == 0 {
		t.Fatal("no usable days in two-week trace")
	}
	if len(days) > d.Config.Days {
		t.Fatalf("usable days %d exceeds trace", len(days))
	}
	// With one long outage, some days must be lost.
	if len(days) == d.Config.Days {
		t.Error("outage removed no days")
	}
	train, valid := SplitDays(days)
	if len(train)+len(valid) != len(days) {
		t.Errorf("split loses days: %d + %d != %d", len(train), len(valid), len(days))
	}
	if len(train) > 0 && len(valid) > 0 && train[len(train)-1] >= valid[0] {
		t.Error("split is not temporal")
	}
}

func TestMatricesShapes(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	temps, err := d.TempsMatrix()
	if err != nil {
		t.Fatal(err)
	}
	r, c := temps.Dims()
	if r != 27 || c != d.Frame.Grid.N {
		t.Errorf("temps dims = %dx%d", r, c)
	}
	inputs, err := d.InputsMatrix()
	if err != nil {
		t.Fatal(err)
	}
	r, c = inputs.Dims()
	if r != 7 || c != d.Frame.Grid.N {
		t.Errorf("inputs dims = %dx%d", r, c)
	}
	truth, err := d.TruthMatrix()
	if err != nil {
		t.Fatal(err)
	}
	r, _ = truth.Dims()
	if r != 27 {
		t.Errorf("truth rows = %d", r)
	}
	if f := finiteFraction(truth); f < 0.999 {
		t.Errorf("truth finite fraction = %v, want ~1", f)
	}
	if f := finiteFraction(temps); f >= 1 || f < 0.4 {
		t.Errorf("temps finite fraction = %v, want in (0.4, 1)", f)
	}
}

func TestValidColumnsAndCollect(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	mask, err := d.ValidColumns()
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != d.Frame.Grid.N {
		t.Fatalf("mask length = %d", len(mask))
	}
	temps, err := d.TempsMatrix()
	if err != nil {
		t.Fatal(err)
	}
	seg := timeseries.Segment{Start: 0, End: d.Frame.Grid.N}
	coll := CollectValid(temps, mask, []timeseries.Segment{seg})
	_, cols := coll.Dims()
	var wantCols int
	for _, ok := range mask {
		if ok {
			wantCols++
		}
	}
	if cols != wantCols {
		t.Errorf("collected %d columns, want %d", cols, wantCols)
	}
	if f := finiteFraction(coll); f != 1 {
		t.Errorf("collected finite fraction = %v, want 1", f)
	}
}

func TestOccupancyAndLightConsistent(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	occ, err := d.Frame.Channel(ChannelOccupancy)
	if err != nil {
		t.Fatal(err)
	}
	light, err := d.Frame.Channel(ChannelLight)
	if err != nil {
		t.Fatal(err)
	}
	var occupiedSteps int
	for k := range occ {
		if light[k] != 0 && light[k] != 1 {
			t.Fatalf("light[%d] = %v, want 0/1", k, light[k])
		}
		if !math.IsNaN(occ[k]) && occ[k] > 3 && light[k] == 0 {
			t.Errorf("step %d: %v occupants with lights off", k, occ[k])
		}
		if !math.IsNaN(occ[k]) && occ[k] > 0 {
			occupiedSteps++
		}
	}
	if occupiedSteps == 0 {
		t.Error("no occupied steps in two weeks")
	}
}

func TestFullScaleTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full 98-day trace generation in -short mode")
	}
	d := mustGenerate(t, DefaultConfig())
	days, err := d.UsableDays(Occupied, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper keeps 64 of 98 days; the simulated failure plan should
	// land in the same regime.
	if len(days) < 50 || len(days) > 85 {
		t.Errorf("usable occupied days = %d, want roughly 64", len(days))
	}
	// The Friday March 22 seminar snapshot (paper Fig. 2): spread
	// across sensors should be on the ~2 degC scale.
	at := time.Date(2013, time.March, 22, 12, 30, 0, 0, time.UTC)
	k, ok := d.Frame.Grid.Index(at)
	if !ok {
		t.Fatal("snapshot instant outside grid")
	}
	min, max := math.Inf(1), math.Inf(-1)
	for i := range d.SensorNames() {
		v := d.Frame.Values[i][k]
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if spread := max - min; spread < 1 || spread > 4.5 {
		t.Errorf("seminar snapshot spread = %v, want ~2-3", spread)
	}
}

func TestNodeFailuresReduceUsableDays(t *testing.T) {
	base := smallConfig()
	base.NumLongOutages = 0
	base.NumShortOutages = 0
	clean := mustGenerate(t, base)
	cleanDays, err := clean.UsableDays(Occupied, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	failing := base
	failing.NodeFailureProb = 1 // every wireless node dies once
	broken := mustGenerate(t, failing)
	brokenDays, err := broken.UsableDays(Occupied, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(brokenDays) >= len(cleanDays) {
		t.Errorf("node failures left %d usable days vs %d without; want fewer",
			len(brokenDays), len(cleanDays))
	}
	if _, err := Generate(withNodeFailureProb(base, -1)); err == nil {
		t.Error("negative failure probability accepted")
	}
	if _, err := Generate(withNodeFailureProb(base, 2)); err == nil {
		t.Error("probability above 1 accepted")
	}
}

func withNodeFailureProb(cfg Config, p float64) Config {
	cfg.NodeFailureProb = p
	return cfg
}

func TestVisionCameraOption(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 4
	cfg.UseVisionCamera = true
	d := mustGenerate(t, cfg)
	occ, err := d.Frame.Channel(ChannelOccupancy)
	if err != nil {
		t.Fatal(err)
	}
	var sawPeople bool
	for k, v := range occ {
		if math.IsNaN(v) {
			continue
		}
		if v < 0 || v > 120 {
			t.Fatalf("vision count %v implausible", v)
		}
		if v > 5 {
			sawPeople = true
		}
		truth := float64(d.Schedule.CountAt(d.Frame.Grid.Time(k)))
		if truth > 90 {
			truth = 90
		}
		if diff := math.Abs(v - truth); diff > 15 {
			t.Fatalf("vision count %v vs truth %v at step %d", v, truth, k)
		}
	}
	if !sawPeople {
		t.Error("vision camera never saw an event")
	}
}

// TestGenerateNoAllocationPerStep: the co-simulation loop reuses its
// thermostat buffer and the plant its flow buffer, so one more
// simulated day (1,440 one-minute steps) allocates only for what grows
// with the trace (series and frame storage), far less than once per
// step.
func TestGenerateNoAllocationPerStep(t *testing.T) {
	allocs := func(days int) float64 {
		cfg := benchConfig()
		cfg.Days = days
		return testing.AllocsPerRun(1, func() {
			if _, err := Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	steps := int(24 * time.Hour / benchConfig().SimStep)
	if extra := allocs(3) - allocs(2); extra >= float64(steps)/10 {
		t.Fatalf("one more day of %d steps allocates %v more times, want under %d", steps, extra, steps/10)
	}
}

// finiteFraction reports the fraction of finite entries in m.
func finiteFraction(m *mat.Dense) float64 {
	rows, cols := m.Dims()
	if rows*cols == 0 {
		return 0
	}
	finite := 0
	for i := 0; i < rows; i++ {
		for _, v := range m.RawRow(i) {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite++
			}
		}
	}
	return float64(finite) / float64(rows*cols)
}
