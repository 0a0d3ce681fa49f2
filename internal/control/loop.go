package control

import (
	"fmt"
	"math"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/comfort"
	"auditherm/internal/hvac"
	"auditherm/internal/monitor"
	"auditherm/internal/occupancy"
	"auditherm/internal/timeseries"
	"auditherm/internal/weather"
)

// LoopConfig drives a closed-loop simulation of a controller against
// the ground-truth building.
type LoopConfig struct {
	// Building configures the plant being controlled.
	Building building.Config
	// Spec optionally selects a non-auditorium archetype; when set it
	// overrides Building (and keeps nil-spec JSON encodings unchanged
	// via omitempty, so existing cache keys survive).
	Spec *building.Spec `json:",omitempty"`
	// Start and Days bound the simulated span.
	Start time.Time
	Days  int
	// SimStep is the physics step; DecisionStep is how often the
	// controller is consulted (its command holds in between).
	SimStep, DecisionStep time.Duration
	// Schedule drives occupancy; Weather drives ambient temperature.
	Schedule *occupancy.Schedule
	Weather  *weather.Model
	// SensorPositions are the locations the controller observes.
	SensorPositions []building.Point
	// ComfortPositions are where comfort is scored (typically every
	// sensor location, so a controller cannot game the metric by only
	// conditioning its own sensors).
	ComfortPositions []building.Point
	// Setpoint scores comfort deviation.
	Setpoint float64
	// NumVAVs converts the per-VAV command to total flow.
	NumVAVs int

	// Sense, when set, transforms the ground-truth temperatures at
	// SensorPositions into what the controller actually reads — e.g. a
	// sensornet replay with stale-hold and outage windows. It is called
	// once per decision step; the returned slice must have the same
	// length (it may alias truth). nil means perfect sensing.
	Sense func(t time.Time, truth []float64) []float64
	// Health, when set, receives a (ground truth, sensed) pair per
	// sensor at every decision step: the model-health monitor's
	// residual stream. The monitor must have exactly
	// len(SensorPositions) sensors, in position order. The truth is the
	// simulator's temperature at the same instant, so the residual
	// isolates the sensing chain (stale holds, outages, calibration
	// drift).
	Health *monitor.Monitor
}

// LoopResult aggregates a closed-loop run.
type LoopResult struct {
	// Controller is the controller's name.
	Controller string
	// ComfortRMS is the RMS deviation (degC) from the setpoint across
	// the comfort positions over occupied steps (people present).
	ComfortRMS float64
	// DiscomfortFrac is the fraction of (position, occupied step)
	// samples whose PMV deviates from the setpoint's own PMV by more
	// than 0.5 (so the metric scores control quality, not the choice
	// of setpoint).
	DiscomfortFrac float64
	// CoolingKWh is the thermal cooling energy delivered.
	CoolingKWh float64
	// MeanOccupiedFlow is the average total airflow during schedule-on
	// hours in kg/s.
	MeanOccupiedFlow float64
	// OccupiedHours is the simulated time with people present.
	OccupiedHours float64
	// ComfortViolationHours is the expected per-position time (hours)
	// spent outside the +-0.5 PMV comfort band while occupied:
	// DiscomfortFrac scaled by OccupiedHours.
	ComfortViolationHours float64
}

// RunLoop simulates the controller against the building and scores it.
func RunLoop(cfg LoopConfig, ctrl Controller) (*LoopResult, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("control: loop days %d: %w", cfg.Days, ErrBadConfig)
	}
	if cfg.SimStep <= 0 || cfg.DecisionStep < cfg.SimStep {
		return nil, fmt.Errorf("control: loop steps (sim %v, decision %v): %w",
			cfg.SimStep, cfg.DecisionStep, ErrBadConfig)
	}
	if cfg.Schedule == nil || cfg.Weather == nil {
		return nil, fmt.Errorf("control: loop needs schedule and weather: %w", ErrBadConfig)
	}
	if len(cfg.SensorPositions) == 0 || len(cfg.ComfortPositions) == 0 {
		return nil, fmt.Errorf("control: loop needs sensor and comfort positions: %w", ErrBadConfig)
	}
	if cfg.NumVAVs <= 0 {
		return nil, fmt.Errorf("control: loop NumVAVs %d: %w", cfg.NumVAVs, ErrBadConfig)
	}
	if cfg.Health != nil {
		if n := len(cfg.Health.SensorNames()); n != len(cfg.SensorPositions) {
			return nil, fmt.Errorf("control: health monitor has %d sensors for %d positions: %w",
				n, len(cfg.SensorPositions), ErrBadConfig)
		}
	}
	var sim building.Building
	var err error
	if cfg.Spec != nil {
		if err = cfg.Spec.Validate(); err != nil {
			return nil, err
		}
		sim, err = cfg.Spec.New()
	} else {
		sim, err = building.NewSimulator(cfg.Building)
	}
	if err != nil {
		return nil, err
	}
	end := cfg.Start.AddDate(0, 0, cfg.Days)
	grid, err := timeseries.NewGrid(cfg.Start, end.Add(time.Hour), 10*time.Minute)
	if err != nil {
		return nil, err
	}
	ambient := cfg.Weather.Series(grid)

	pmvSet, err := comfort.PMV(comfort.AuditoriumConditions(cfg.Setpoint))
	if err != nil {
		return nil, err
	}
	res := &LoopResult{Controller: ctrl.Name()}
	var comfortSq float64
	var comfortN int
	var discomfort, comfortSamples float64
	var coolingJ float64
	var flowSum float64
	var flowN int
	var occSteps int

	var cmd Command
	nextDecision := cfg.Start
	nSteps := int(end.Sub(cfg.Start) / cfg.SimStep)
	// The ground-truth buffer is reused every decision step.
	truthBuf := make([]float64, len(cfg.SensorPositions))
	// The per-VAV flow command: sim.Step only reads it, so one buffer
	// serves every tick.
	flows := make([]float64, cfg.NumVAVs)
	for k := 0; k < nSteps; k++ {
		t := cfg.Start.Add(time.Duration(k) * cfg.SimStep)
		amb, ok := ambient.InterpAt(t)
		if !ok {
			amb, _ = ambient.ValueAt(t)
		}
		occ := cfg.Schedule.CountAt(t)
		lights := occ > 0

		if !t.Before(nextDecision) {
			truth := sim.TemperaturesAt(cfg.SensorPositions, truthBuf)
			sensed := truth
			if cfg.Sense != nil {
				sensed = cfg.Sense(t, truth)
				if len(sensed) != len(cfg.SensorPositions) {
					return nil, fmt.Errorf("control: Sense returned %d readings for %d sensors: %w",
						len(sensed), len(cfg.SensorPositions), ErrBadConfig)
				}
			}
			// Feed the health monitor BEFORE the controller acts: the
			// residual pairs the ground truth with what the sensing
			// chain reports now.
			if cfg.Health != nil {
				for i := range sensed {
					cfg.Health.UpdateAt(i, truth[i], sensed[i], t)
				}
			}
			obs := Observation{
				Time:        t,
				SensorTemps: append([]float64(nil), sensed...),
				Occupants:   float64(occ),
				LightsOn:    lights,
				Ambient:     amb,
			}
			cmd, err = ctrl.Decide(obs)
			if err != nil {
				return nil, fmt.Errorf("control: %s decision at %v: %w", ctrl.Name(), t, err)
			}
			loopDecisionsTotal.Inc()
			nextDecision = nextDecision.Add(cfg.DecisionStep)
		}

		for i := range flows {
			flows[i] = cmd.FlowPerVAV
		}
		st := hvac.State{Flows: flows, SupplyTemp: cmd.SupplyTemp}
		meanBefore := sim.MeanTemp()
		if err := sim.Step(cfg.SimStep, building.Inputs{
			HVAC: st, Occupants: occ, LightsOn: lights, Ambient: amb,
		}); err != nil {
			return nil, err
		}

		// Cooling energy: heat extracted by supply air below the room
		// return temperature.
		total := st.TotalFlow()
		if d := meanBefore - cmd.SupplyTemp; d > 0 {
			coolingJ += total * hvac.AirCp * d * cfg.SimStep.Seconds()
		}
		if h := t.Hour(); h >= 6 && h < 21 {
			flowSum += total
			flowN++
		}

		// Comfort scoring while people are present.
		if occ > 0 {
			occSteps++
			for _, p := range cfg.ComfortPositions {
				temp := sim.TemperatureAt(p)
				dev := temp - cfg.Setpoint
				comfortSq += dev * dev
				comfortN++
				pmv, err := comfort.PMV(comfort.AuditoriumConditions(temp))
				if err != nil {
					return nil, err
				}
				comfortSamples++
				if pmv > pmvSet+0.5 || pmv < pmvSet-0.5 {
					discomfort++
				}
			}
		}

		// Live progress gauges: scraping /metrics mid-study shows the
		// running comfort and energy totals of the loop in flight.
		loopTicksTotal.Inc()
		if comfortN > 0 {
			loopComfortRMS.Set(math.Sqrt(comfortSq / float64(comfortN)))
		}
		loopCoolingKWh.Set(coolingJ / 3.6e6)
	}
	if comfortN > 0 {
		res.ComfortRMS = math.Sqrt(comfortSq / float64(comfortN))
		res.DiscomfortFrac = discomfort / comfortSamples
	}
	res.OccupiedHours = float64(occSteps) * cfg.SimStep.Hours()
	res.ComfortViolationHours = res.DiscomfortFrac * res.OccupiedHours
	res.CoolingKWh = coolingJ / 3.6e6
	if flowN > 0 {
		res.MeanOccupiedFlow = flowSum / float64(flowN)
	}
	return res, nil
}
