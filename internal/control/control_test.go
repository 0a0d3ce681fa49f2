package control

import (
	"errors"
	"testing"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/mat"
	"auditherm/internal/occupancy"
	"auditherm/internal/sysid"
	"auditherm/internal/weather"
)

var noon = time.Date(2013, time.March, 4, 12, 0, 0, 0, time.UTC)

func TestFixedFlowSchedule(t *testing.T) {
	c := &FixedFlow{OnHour: 6, OffHour: 21, Flow: 0.4, MinFlow: 0.05, CoolSupply: 14, NeutralSupply: 20}
	on, err := c.Decide(Observation{Time: noon})
	if err != nil {
		t.Fatal(err)
	}
	if on.FlowPerVAV != 0.4 || on.SupplyTemp != 14 {
		t.Errorf("on-schedule command = %+v", on)
	}
	off, err := c.Decide(Observation{Time: noon.Add(12 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if off.FlowPerVAV != 0.05 || off.SupplyTemp != 20 {
		t.Errorf("off-schedule command = %+v", off)
	}
	if c.Name() == "" {
		t.Error("empty name")
	}
}

func TestDeadbandBranches(t *testing.T) {
	d := DefaultDeadband()
	cases := []struct {
		name       string
		temp       float64
		wantSupply float64
		minFlow    float64
	}{
		{"hot", 24, d.CoolSupply, d.BaseFlow},
		{"cold", 18, d.HeatSupply, d.BaseFlow},
		{"neutral", 21, d.NeutralSupply, d.BaseFlow},
	}
	for _, c := range cases {
		cmd, err := d.Decide(Observation{Time: noon, SensorTemps: []float64{c.temp}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cmd.SupplyTemp != c.wantSupply {
			t.Errorf("%s: supply = %v, want %v", c.name, cmd.SupplyTemp, c.wantSupply)
		}
		if cmd.FlowPerVAV < c.minFlow {
			t.Errorf("%s: flow = %v below base", c.name, cmd.FlowPerVAV)
		}
	}
	// Hotter room demands more flow.
	hot, _ := d.Decide(Observation{Time: noon, SensorTemps: []float64{25}})
	mild, _ := d.Decide(Observation{Time: noon, SensorTemps: []float64{21.5}})
	if hot.FlowPerVAV <= mild.FlowPerVAV {
		t.Errorf("hot flow %v not above mild flow %v", hot.FlowPerVAV, mild.FlowPerVAV)
	}
	// Flow caps at MaxFlow.
	scorch, _ := d.Decide(Observation{Time: noon, SensorTemps: []float64{40}})
	if scorch.FlowPerVAV > d.MaxFlow {
		t.Errorf("flow %v exceeds max %v", scorch.FlowPerVAV, d.MaxFlow)
	}
	// Off schedule: minimum.
	night, _ := d.Decide(Observation{Time: noon.Add(12 * time.Hour), SensorTemps: []float64{25}})
	if night.FlowPerVAV != d.MinFlow {
		t.Errorf("night flow = %v, want min", night.FlowPerVAV)
	}
	// Missing sensors on schedule: error.
	if _, err := d.Decide(Observation{Time: noon}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing sensors err = %v", err)
	}
}

// testModel is a hand-built single-sensor model with CoolingMPC's
// input convention, where cooling power cools and internal gains heat:
// T(k+1) = 0.98 T(k) - 0.03*q + 0.005*occ + 0.1*light + 0.004*ambient,
// with q = totalFlow * (T_room - T_supply). With a full room and lights
// on, the uncontrolled equilibrium sits well above the setpoint, so a
// sane controller must cool.
func testModel() *sysid.Model {
	return &sysid.Model{
		Order: sysid.FirstOrder,
		A:     mat.NewDenseData(1, 1, []float64{0.98}),
		B: mat.NewDenseData(1, 4, []float64{
			-0.03,             // cooling power cools
			0.005, 0.1, 0.004, // occ, light, ambient heat
		}),
	}
}

func mpcConfig() CoolingMPCConfig {
	return CoolingMPCConfig{
		Model:         testModel(),
		NumVAVs:       4,
		Setpoint:      21,
		EnergyWeight:  0.01,
		Horizon:       8,
		MinFlow:       0.05,
		MaxFlow:       0.6,
		OnHour:        6,
		OffHour:       21,
		CoolSupply:    14,
		NeutralSupply: 20,
	}
}

func TestNewMPCValidation(t *testing.T) {
	flowInputs := testModel()
	flowInputs.B = mat.NewDense(1, 7) // [4 VAV flows, occ, light, ambient]
	cases := []struct {
		name   string
		mutate func(*CoolingMPCConfig)
	}{
		{"nil model", func(c *CoolingMPCConfig) { c.Model = nil }},
		{"zero VAVs", func(c *CoolingMPCConfig) { c.NumVAVs = 0 }},
		{"zero horizon", func(c *CoolingMPCConfig) { c.Horizon = 0 }},
		{"bad bounds", func(c *CoolingMPCConfig) { c.MinFlow, c.MaxFlow = 1, 0.5 }},
		{"negative energy weight", func(c *CoolingMPCConfig) { c.EnergyWeight = -1 }},
		{"input mismatch", func(c *CoolingMPCConfig) { c.Model = flowInputs }},
	}
	for _, c := range cases {
		cfg := mpcConfig()
		c.mutate(&cfg)
		if _, err := NewCoolingMPC(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

func TestMPCCoolsHotRoom(t *testing.T) {
	m, err := NewCoolingMPC(mpcConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := m.Decide(Observation{Time: noon, SensorTemps: []float64{24}, Occupants: 80, LightsOn: true, Ambient: 15})
	if err != nil {
		t.Fatal(err)
	}
	if hot.FlowPerVAV < 0.3 {
		t.Errorf("hot-room flow = %v, want strong cooling", hot.FlowPerVAV)
	}
	if hot.SupplyTemp != 14 {
		t.Errorf("hot-room supply = %v, want cool", hot.SupplyTemp)
	}
}

func TestMPCIdlesCoolRoom(t *testing.T) {
	m, err := NewCoolingMPC(mpcConfig())
	if err != nil {
		t.Fatal(err)
	}
	cool, err := m.Decide(Observation{Time: noon, SensorTemps: []float64{19.5}, Ambient: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cool.FlowPerVAV > 0.1 {
		t.Errorf("cool-room flow = %v, want near minimum", cool.FlowPerVAV)
	}
}

func TestMPCOffSchedule(t *testing.T) {
	m, err := NewCoolingMPC(mpcConfig())
	if err != nil {
		t.Fatal(err)
	}
	night, err := m.Decide(Observation{Time: noon.Add(12 * time.Hour), SensorTemps: []float64{25}})
	if err != nil {
		t.Fatal(err)
	}
	if night.FlowPerVAV != 0.05 || night.SupplyTemp != 20 {
		t.Errorf("night command = %+v, want minimum ventilation", night)
	}
}

func TestMPCEnergyWeightReducesFlow(t *testing.T) {
	cheap := mpcConfig()
	costly := mpcConfig()
	costly.EnergyWeight = 60
	mCheap, err := NewCoolingMPC(cheap)
	if err != nil {
		t.Fatal(err)
	}
	mCostly, err := NewCoolingMPC(costly)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{Time: noon, SensorTemps: []float64{22.5}, Occupants: 80, LightsOn: true, Ambient: 25}
	a, err := mCheap.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mCostly.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	if b.FlowPerVAV >= a.FlowPerVAV {
		t.Errorf("costly energy flow %v not below cheap %v", b.FlowPerVAV, a.FlowPerVAV)
	}
}

func TestMPCWrongSensorCount(t *testing.T) {
	m, err := NewCoolingMPC(mpcConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decide(Observation{Time: noon, SensorTemps: []float64{20, 21}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

func loopConfig(t *testing.T, days int) LoopConfig {
	t.Helper()
	start := time.Date(2013, time.March, 4, 0, 0, 0, 0, time.UTC) // a Monday
	sched, err := occupancy.Generate(start, start.AddDate(0, 0, days), occupancy.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	wm, err := weather.NewModel(weather.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sensors, comfortPos []building.Point
	for _, sp := range building.AuditoriumSensors() {
		comfortPos = append(comfortPos, sp.Pos)
		if sp.Thermostat {
			sensors = append(sensors, sp.Pos)
		}
	}
	return LoopConfig{
		Building:         building.DefaultConfig(),
		Start:            start,
		Days:             days,
		SimStep:          time.Minute,
		DecisionStep:     15 * time.Minute,
		Schedule:         sched,
		Weather:          wm,
		SensorPositions:  sensors,
		ComfortPositions: comfortPos,
		Setpoint:         21,
		NumVAVs:          4,
	}
}

func TestRunLoopValidation(t *testing.T) {
	base := loopConfig(t, 1)
	ctrl := DefaultDeadband()
	cases := []struct {
		name   string
		mutate func(*LoopConfig)
	}{
		{"zero days", func(c *LoopConfig) { c.Days = 0 }},
		{"bad steps", func(c *LoopConfig) { c.DecisionStep = c.SimStep / 2 }},
		{"nil schedule", func(c *LoopConfig) { c.Schedule = nil }},
		{"no sensors", func(c *LoopConfig) { c.SensorPositions = nil }},
		{"zero VAVs", func(c *LoopConfig) { c.NumVAVs = 0 }},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		if _, err := RunLoop(cfg, ctrl); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

func TestRunLoopDeadbandSane(t *testing.T) {
	cfg := loopConfig(t, 2)
	res, err := RunLoop(cfg, DefaultDeadband())
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != "deadband-thermostat" {
		t.Errorf("controller name = %q", res.Controller)
	}
	if res.ComfortRMS <= 0 || res.ComfortRMS > 4 {
		t.Errorf("comfort RMS = %v, want plausible", res.ComfortRMS)
	}
	if res.DiscomfortFrac < 0 || res.DiscomfortFrac > 1 {
		t.Errorf("discomfort fraction = %v", res.DiscomfortFrac)
	}
	if res.CoolingKWh < 0 {
		t.Errorf("cooling energy = %v", res.CoolingKWh)
	}
	if res.MeanOccupiedFlow <= 0 {
		t.Errorf("mean occupied flow = %v", res.MeanOccupiedFlow)
	}
}

func TestRunLoopMoreFlowMoreEnergy(t *testing.T) {
	cfg := loopConfig(t, 1)
	low, err := RunLoop(cfg, &FixedFlow{OnHour: 6, OffHour: 21, Flow: 0.1, MinFlow: 0.05, CoolSupply: 14, NeutralSupply: 20})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunLoop(cfg, &FixedFlow{OnHour: 6, OffHour: 21, Flow: 0.5, MinFlow: 0.05, CoolSupply: 14, NeutralSupply: 20})
	if err != nil {
		t.Fatal(err)
	}
	if high.CoolingKWh <= low.CoolingKWh {
		t.Errorf("high-flow energy %v not above low-flow %v", high.CoolingKWh, low.CoolingKWh)
	}
}

// TestRunLoopNoAllocationPerTick: one more simulated day adds 1,440
// one-minute ticks but allocates only at its 96 decision steps (the
// Observation's copy of the readings, which a controller may keep)
// and for the longer weather series.
func TestRunLoopNoAllocationPerTick(t *testing.T) {
	allocs := func(days int) float64 {
		cfg := loopConfig(t, days)
		return testing.AllocsPerRun(1, func() {
			if _, err := RunLoop(cfg, DefaultDeadband()); err != nil {
				t.Fatal(err)
			}
		})
	}
	cfg := loopConfig(t, 1)
	decisions := int(24 * time.Hour / cfg.DecisionStep)
	if extra := allocs(2) - allocs(1); extra > float64(decisions+4) {
		t.Fatalf("one more day allocates %v more times, want at most %d (one per decision step, plus 4)", extra, decisions+4)
	}
}
