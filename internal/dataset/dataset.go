// Package dataset generates and organizes the auditorium dataset: a
// multi-month co-simulation of the building, HVAC plant, occupants,
// weather and wireless sensor network, assembled onto a regular grid
// ready for model identification.
//
// The layout mirrors the paper's 14-week trace (January 31 to May 8,
// 2013): 27 temperature channels (25 wireless sensors + 2 thermostats),
// four VAV airflow channels, an occupant count from the camera, the
// lighting status and the ambient temperature, with realistic gaps from
// sensor-network and backend failures.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/hvac"
	"auditherm/internal/occupancy"
	"auditherm/internal/sensornet"
	"auditherm/internal/timeseries"
	"auditherm/internal/weather"
)

// Channel names for the non-sensor inputs.
const (
	ChannelOccupancy = "occ"
	ChannelLight     = "light"
	ChannelAmbient   = "ambient"
	ChannelSupply    = "supply"
)

// VAVChannel returns the airflow channel name of VAV i (1-based).
func VAVChannel(i int) string { return fmt.Sprintf("vav%d", i) }

// Config parameterizes dataset generation.
type Config struct {
	// Start is the first instant of the trace.
	Start time.Time
	// Days is the trace length in days (98 in the paper).
	Days int
	// SimStep is the physics/sensing step.
	SimStep time.Duration
	// GridStep is the identification grid step.
	GridStep time.Duration
	// MaxStale bounds how stale a held sensor reading may be before the
	// grid point is marked missing.
	MaxStale time.Duration
	// Seed feeds all stochastic components deterministically.
	Seed int64
	// NumLongOutages and NumShortOutages shape the backend failure plan.
	NumLongOutages, NumShortOutages int
	// NodeFailureProb is each wireless node's chance of suffering one
	// dead window (battery/firmware failure, 12 h - 2.5 days) during
	// the trace. The paper's exclusions stem from "sensor and server
	// failures"; this is the sensor half.
	NodeFailureProb float64
	// UseVisionCamera counts occupants through the synthetic-photo
	// vision pipeline (occupancy.VisionCamera) instead of the abstract
	// Gaussian-error camera — the paper's "computer vision" future
	// work, with occlusion-shaped counting error.
	UseVisionCamera bool

	// Spec optionally selects a non-auditorium building archetype: when
	// set, its model and sensor deployment replace Building and the
	// paper's 27-sensor layout. Nil keeps the auditorium path (and, via
	// omitempty, keeps the config's JSON — and every cache key hashed
	// from it — byte-identical to the pre-archetype encoding).
	Spec *building.Spec `json:",omitempty"`

	Building  building.Config
	HVAC      hvac.Config
	Weather   weather.Config
	Occupancy occupancy.GeneratorConfig
	Camera    occupancy.CameraConfig
	Node      sensornet.NodeConfig
}

// DefaultConfig reproduces the paper's trace shape: 98 days from
// January 31, 2013, 15-minute identification grid, roughly a third of
// the days lost to failures.
func DefaultConfig() Config {
	return Config{
		Start:           time.Date(2013, time.January, 31, 0, 0, 0, 0, time.UTC),
		Days:            98,
		SimStep:         30 * time.Second,
		GridStep:        15 * time.Minute,
		MaxStale:        45 * time.Minute,
		Seed:            1,
		NumLongOutages:  7,
		NumShortOutages: 12,
		NodeFailureProb: 0.15,
		Building:        building.DefaultConfig(),
		HVAC:            hvac.DefaultConfig(),
		Weather:         weather.DefaultConfig(),
		Occupancy:       occupancy.DefaultGeneratorConfig(),
		Camera:          occupancy.DefaultCameraConfig(),
		Node:            sensornet.DefaultNodeConfig(),
	}
}

// Dataset is a generated auditorium trace.
type Dataset struct {
	Config  Config
	Sensors []building.SensorSpec
	// Frame holds every channel on the identification grid with NaN
	// marking gaps.
	Frame *timeseries.Frame
	// Truth holds the noise-free ground-truth temperature of every
	// sensor location on the same grid (no gaps); used for oracle
	// comparisons, never for identification.
	Truth *timeseries.Frame
	// Schedule is the ground-truth event schedule.
	Schedule *occupancy.Schedule
	// Outages is the backend failure plan applied to the trace.
	Outages []sensornet.Outage
}

// SensorNames returns the temperature channel names in layout order.
func (d *Dataset) SensorNames() []string {
	out := make([]string, len(d.Sensors))
	for i, s := range d.Sensors {
		out[i] = s.Name()
	}
	return out
}

// ThermostatNames returns the channel names of the HVAC thermostats.
func (d *Dataset) ThermostatNames() []string {
	var out []string
	for _, s := range d.Sensors {
		if s.Thermostat {
			out = append(out, s.Name())
		}
	}
	return out
}

// WirelessNames returns the channel names of the non-thermostat
// wireless sensors.
func (d *Dataset) WirelessNames() []string {
	var out []string
	for _, s := range d.Sensors {
		if !s.Thermostat {
			out = append(out, s.Name())
		}
	}
	return out
}

// InputNames returns the model input channels in the paper's order:
// VAV airflows h(k), occupancy o(k), light l(k), ambient w(k).
func (d *Dataset) InputNames() []string {
	out := make([]string, 0, d.Config.HVAC.NumVAVs+3)
	for i := 1; i <= d.Config.HVAC.NumVAVs; i++ {
		out = append(out, VAVChannel(i))
	}
	return append(out, ChannelOccupancy, ChannelLight, ChannelAmbient)
}

// Generate runs the co-simulation and assembles the dataset.
func Generate(cfg Config) (*Dataset, error) {
	defer func(t0 time.Time) { generateSeconds.Observe(time.Since(t0).Seconds()) }(time.Now())
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("dataset: Days %d must be positive", cfg.Days)
	}
	if cfg.SimStep <= 0 || cfg.GridStep <= 0 {
		return nil, fmt.Errorf("dataset: steps must be positive (sim %v, grid %v)", cfg.SimStep, cfg.GridStep)
	}
	if cfg.GridStep < cfg.SimStep {
		return nil, fmt.Errorf("dataset: grid step %v below sim step %v", cfg.GridStep, cfg.SimStep)
	}
	end := cfg.Start.AddDate(0, 0, cfg.Days)

	// Substrate setup.
	wm, err := weather.NewModel(cfg.Weather)
	if err != nil {
		return nil, fmt.Errorf("dataset: weather: %w", err)
	}
	weatherGrid, err := timeseries.NewGrid(cfg.Start, end.Add(time.Hour), 10*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("dataset: weather grid: %w", err)
	}
	ambientSeries := wm.Series(weatherGrid)

	sched, err := occupancy.Generate(cfg.Start, end, cfg.Occupancy)
	if err != nil {
		return nil, fmt.Errorf("dataset: occupancy: %w", err)
	}
	var cameraSeries *timeseries.Series
	if cfg.UseVisionCamera {
		camera, err := occupancy.NewVisionCamera(occupancy.DefaultVisionConfig(), cfg.Camera.Interval, cfg.Camera.Seed)
		if err != nil {
			return nil, fmt.Errorf("dataset: vision camera: %w", err)
		}
		cameraSeries, err = camera.Observe(sched, cfg.Start, end)
		if err != nil {
			return nil, fmt.Errorf("dataset: vision camera: %w", err)
		}
	} else {
		camera, err := occupancy.NewCamera(cfg.Camera)
		if err != nil {
			return nil, fmt.Errorf("dataset: camera: %w", err)
		}
		cameraSeries = camera.Observe(sched, cfg.Start, end)
	}

	plant, err := hvac.NewPlant(cfg.HVAC)
	if err != nil {
		return nil, fmt.Errorf("dataset: hvac: %w", err)
	}
	portal, err := hvac.NewLogger(cfg.HVAC.NumVAVs, 10*time.Minute, 30*time.Minute, cfg.Seed+100)
	if err != nil {
		return nil, fmt.Errorf("dataset: portal: %w", err)
	}

	var sim building.Building
	if cfg.Spec != nil {
		if err := cfg.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: building spec: %w", err)
		}
		sim, err = cfg.Spec.New()
	} else {
		sim, err = building.NewSimulator(cfg.Building)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: building: %w", err)
	}
	sensors := building.SensorsOf(cfg.Spec)

	outages := sensornet.GenerateOutages(cfg.Start, end, cfg.NumLongOutages, cfg.NumShortOutages, cfg.Seed+200)
	store := sensornet.NewStore(outages)
	nodes := make([]*sensornet.Node, 0, len(sensors))
	for _, sp := range sensors {
		nodeCfg := cfg.Node
		if sp.Thermostat {
			// Wired thermostats: no radio loss, tighter calibration.
			nodeCfg.LossProb = 0
			nodeCfg.CalibrationStd = cfg.Node.CalibrationStd / 2
		}
		n, err := sensornet.NewNode(sp.Name(), nodeCfg, cfg.Seed+300+int64(sp.ID))
		if err != nil {
			return nil, fmt.Errorf("dataset: node %s: %w", sp.Name(), err)
		}
		nodes = append(nodes, n)
	}
	net, err := sensornet.NewNetwork(nodes, store)
	if err != nil {
		return nil, fmt.Errorf("dataset: network: %w", err)
	}
	if cfg.NodeFailureProb < 0 || cfg.NodeFailureProb > 1 {
		return nil, fmt.Errorf("dataset: NodeFailureProb %v outside [0,1]", cfg.NodeFailureProb)
	}
	if cfg.NodeFailureProb > 0 {
		failRng := rand.New(rand.NewSource(cfg.Seed + 900))
		span := end.Sub(cfg.Start)
		for _, sp := range sensors {
			if sp.Thermostat {
				continue // the wired thermostats do not die
			}
			if failRng.Float64() >= cfg.NodeFailureProb {
				continue
			}
			dur := time.Duration(12+failRng.Intn(49)) * time.Hour
			at := time.Duration(failRng.Int63n(int64(span)))
			window := sensornet.Outage{Start: cfg.Start.Add(at), End: cfg.Start.Add(at + dur)}
			if err := net.SetNodeFailures(sp.Name(), []sensornet.Outage{window}); err != nil {
				return nil, fmt.Errorf("dataset: node failure plan: %w", err)
			}
		}
	}

	grid, err := timeseries.NewGrid(cfg.Start, end, cfg.GridStep)
	if err != nil {
		return nil, fmt.Errorf("dataset: grid: %w", err)
	}
	truth := timeseries.NewFrame(grid, sensorNames(sensors))

	// Thermostat probe positions for the control loop.
	var thermoPos []building.Point
	for _, sp := range sensors {
		if sp.Thermostat {
			thermoPos = append(thermoPos, sp.Pos)
		}
	}

	// Co-simulation loop.
	nSteps := int(end.Sub(cfg.Start) / cfg.SimStep)
	truths := make([]float64, len(sensors))
	// The thermostat readings: plant.Step only reads them, so one
	// buffer serves every step.
	thermo := make([]float64, len(thermoPos))
	for k := 0; k < nSteps; k++ {
		t := cfg.Start.Add(time.Duration(k) * cfg.SimStep)

		ambient, ok := ambientSeries.InterpAt(t)
		if !ok {
			ambient, _ = ambientSeries.ValueAt(t)
		}
		occ := sched.CountAt(t)
		lights := occ > 0

		for i, p := range thermoPos {
			thermo[i] = sim.TemperatureAt(p)
		}
		st, err := plant.Step(t, cfg.SimStep, thermo)
		if err != nil {
			return nil, fmt.Errorf("dataset: plant step at %v: %w", t, err)
		}
		if err := sim.Step(cfg.SimStep, building.Inputs{
			HVAC:      st,
			Occupants: occ,
			LightsOn:  lights,
			Ambient:   ambient,
		}); err != nil {
			return nil, fmt.Errorf("dataset: building step at %v: %w", t, err)
		}

		for i, sp := range sensors {
			truths[i] = sim.TemperatureAt(sp.Pos)
		}
		if err := net.Sample(t, truths); err != nil {
			return nil, fmt.Errorf("dataset: network sample at %v: %w", t, err)
		}
		// The portal server lives behind the same backend: outages drop
		// its records too.
		if !store.InOutage(t) {
			portal.Offer(t, st)
		}

		// Record ground truth once per grid cell: the first sim step at
		// or after the grid instant (staleness below one sim step).
		if gk, ok := grid.Index(t); ok && math.IsNaN(truth.Values[0][gk]) {
			for i := range sensors {
				truth.Values[i][gk] = truths[i]
			}
		}
	}

	// Assemble the identification frame.
	d := &Dataset{
		Config:   cfg,
		Sensors:  sensors,
		Truth:    truth,
		Schedule: sched,
		Outages:  outages,
	}
	channels := append(append([]string{}, d.SensorNames()...), d.InputNames()...)
	channels = append(channels, ChannelSupply)
	frame := timeseries.NewFrame(grid, channels)

	for _, sp := range sensors {
		ser, err := store.Series(sp.Name())
		if err != nil {
			return nil, fmt.Errorf("dataset: sensor %s never reported: %w", sp.Name(), err)
		}
		if err := frame.SetChannel(sp.Name(), ser.Resample(grid, cfg.MaxStale)); err != nil {
			return nil, err
		}
	}
	for i, ser := range portal.FlowSeries() {
		if err := frame.SetChannel(VAVChannel(i+1), ser.Resample(grid, time.Hour)); err != nil {
			return nil, err
		}
	}
	if err := frame.SetChannel(ChannelSupply, portal.SupplySeries().Resample(grid, time.Hour)); err != nil {
		return nil, err
	}
	if err := frame.SetChannel(ChannelOccupancy, cameraSeries.Resample(grid, 40*time.Minute)); err != nil {
		return nil, err
	}
	lightVals := make([]float64, grid.N)
	ambientVals := make([]float64, grid.N)
	for k := 0; k < grid.N; k++ {
		t := grid.Time(k)
		if sched.CountAt(t) > 0 {
			lightVals[k] = 1
		}
		v, ok := ambientSeries.InterpAt(t)
		if !ok {
			v = math.NaN()
		}
		ambientVals[k] = v
	}
	if err := frame.SetChannel(ChannelLight, lightVals); err != nil {
		return nil, err
	}
	if err := frame.SetChannel(ChannelAmbient, ambientVals); err != nil {
		return nil, err
	}
	d.Frame = frame
	generationsTotal.Inc()
	simStepsTotal.Add(int64(nSteps))
	recordFrameStats(frame.Values)
	return d, nil
}

func sensorNames(sensors []building.SensorSpec) []string {
	out := make([]string, len(sensors))
	for i, s := range sensors {
		out[i] = s.Name()
	}
	return out
}
