// Package hvac models the auditorium's air-handling plant: four
// variable-air-volume (VAV) boxes feeding two supply outlets, a
// schedule-plus-thermostat controller, and the building-portal logger
// that records operating data at 10-30 minute intervals.
//
// The paper's room switches from "off mode" (minimum ventilation) to
// "on mode" at 06:00 and back at 21:00; within on mode the VAVs
// modulate airflow and supply temperature against the two wall
// thermostats.
package hvac

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"auditherm/internal/timeseries"
)

// AirCp is the specific heat of air in J/(kg*K), shared with the
// building simulator.
const AirCp = 1005.0

// Config parameterizes the HVAC plant. Temperatures are degC, flows
// are kg/s.
type Config struct {
	// NumVAVs is the number of VAV boxes (4 in the paper's room).
	NumVAVs int
	// OnHour and OffHour bound the daily on (occupied) mode, local time.
	OnHour, OffHour int
	// CoolSupplyTemp is the supply-air temperature while cooling.
	CoolSupplyTemp float64
	// HeatSupplyTemp is the supply-air temperature while reheating.
	HeatSupplyTemp float64
	// NeutralSupplyTemp is the supply-air temperature in the deadband
	// and during off-mode minimum ventilation (recirculated air).
	NeutralSupplyTemp float64
	// Setpoint is the thermostat target during on mode.
	Setpoint float64
	// Deadband is the +- band around Setpoint with neither heating nor
	// active cooling.
	Deadband float64
	// MinFlowPerVAV is the per-VAV airflow during off mode.
	MinFlowPerVAV float64
	// MaxFlowPerVAV is the per-VAV airflow ceiling.
	MaxFlowPerVAV float64
	// BaseFlowFraction is the fraction of MaxFlowPerVAV delivered for
	// ventilation throughout on mode, before cooling demand is added.
	BaseFlowFraction float64
	// Gain is the proportional cooling gain in (kg/s)/K per VAV.
	Gain float64
	// DamperTau is the first-order actuator time constant smoothing
	// commanded flow changes.
	DamperTau time.Duration
	// ExcitationStd, when positive, adds a slowly-varying random dither
	// to the on-mode flow command (an identification experiment).
	// Models identified from normal closed-loop operation inherit the
	// controller's flow-follows-temperature correlation and are useless
	// for control synthesis; dithered data breaks that correlation and
	// recovers the causal flow-to-temperature response.
	ExcitationStd float64
	// ExcitationTau is the correlation time of the dither (zero selects
	// 45 minutes when excitation is enabled).
	ExcitationTau time.Duration
	// ExcitationSeed makes the dither deterministic.
	ExcitationSeed int64
}

// DefaultConfig mirrors the paper's plant: 4 VAVs, on at 06:00, off at
// 21:00, cool supply at 14 degC, setpoint 21 degC.
func DefaultConfig() Config {
	return Config{
		NumVAVs:           4,
		OnHour:            6,
		OffHour:           21,
		CoolSupplyTemp:    14.0,
		HeatSupplyTemp:    28.0,
		NeutralSupplyTemp: 20.0,
		Setpoint:          21.0,
		Deadband:          0.3,
		MinFlowPerVAV:     0.05,
		MaxFlowPerVAV:     0.60,
		BaseFlowFraction:  0.4,
		Gain:              0.35,
		DamperTau:         4 * time.Minute,
	}
}

// State is the plant's instantaneous operating point.
type State struct {
	// Flows is the airflow of each VAV in kg/s.
	Flows []float64
	// SupplyTemp is the current supply-air temperature in degC.
	SupplyTemp float64
	// OnMode reports whether the plant is in occupied (on) mode.
	OnMode bool
}

// TotalFlow returns the summed airflow across VAVs in kg/s.
func (s State) TotalFlow() float64 {
	var t float64
	for _, f := range s.Flows {
		t += f
	}
	return t
}

// Plant is the simulated HVAC system. It is advanced by calling Step
// with the current time and thermostat readings.
type Plant struct {
	cfg    Config
	flows  []float64 // current (smoothed) per-VAV flows
	out    []float64 // the Flows of the State that Step returns
	supply float64   // current supply temperature
	excRng *rand.Rand
	exc    float64 // current excitation offset, kg/s per VAV
}

// NewPlant validates cfg and returns a plant with dampers at minimum
// and neutral supply air.
func NewPlant(cfg Config) (*Plant, error) {
	if cfg.NumVAVs <= 0 {
		return nil, fmt.Errorf("hvac: NumVAVs %d must be positive", cfg.NumVAVs)
	}
	if cfg.OnHour < 0 || cfg.OnHour > 23 || cfg.OffHour < 0 || cfg.OffHour > 23 {
		return nil, fmt.Errorf("hvac: schedule hours %d-%d out of range", cfg.OnHour, cfg.OffHour)
	}
	if cfg.OnHour >= cfg.OffHour {
		return nil, fmt.Errorf("hvac: OnHour %d must precede OffHour %d", cfg.OnHour, cfg.OffHour)
	}
	if cfg.MinFlowPerVAV < 0 || cfg.MaxFlowPerVAV <= cfg.MinFlowPerVAV {
		return nil, fmt.Errorf("hvac: flow bounds [%v, %v] invalid", cfg.MinFlowPerVAV, cfg.MaxFlowPerVAV)
	}
	if cfg.BaseFlowFraction < 0 || cfg.BaseFlowFraction > 1 {
		return nil, fmt.Errorf("hvac: BaseFlowFraction %v outside [0,1]", cfg.BaseFlowFraction)
	}
	if cfg.Deadband < 0 {
		return nil, fmt.Errorf("hvac: negative deadband %v", cfg.Deadband)
	}
	if cfg.DamperTau <= 0 {
		return nil, fmt.Errorf("hvac: DamperTau %v must be positive", cfg.DamperTau)
	}
	if cfg.CoolSupplyTemp >= cfg.NeutralSupplyTemp || cfg.NeutralSupplyTemp >= cfg.HeatSupplyTemp {
		return nil, fmt.Errorf("hvac: supply temps must order cool %v < neutral %v < heat %v",
			cfg.CoolSupplyTemp, cfg.NeutralSupplyTemp, cfg.HeatSupplyTemp)
	}
	if cfg.ExcitationStd < 0 {
		return nil, fmt.Errorf("hvac: negative excitation std %v", cfg.ExcitationStd)
	}
	if cfg.ExcitationStd > 0 && cfg.ExcitationTau <= 0 {
		cfg.ExcitationTau = 45 * time.Minute
	}
	flows := make([]float64, cfg.NumVAVs)
	for i := range flows {
		flows[i] = cfg.MinFlowPerVAV
	}
	p := &Plant{cfg: cfg, flows: flows, out: make([]float64, len(flows)), supply: cfg.NeutralSupplyTemp}
	if cfg.ExcitationStd > 0 {
		p.excRng = rand.New(rand.NewSource(cfg.ExcitationSeed))
	}
	return p, nil
}

// OnModeAt reports whether the schedule has the plant in on mode at t.
func (p *Plant) OnModeAt(t time.Time) bool {
	h := t.Hour()
	return h >= p.cfg.OnHour && h < p.cfg.OffHour
}

// Step advances the plant by dt given the thermostat temperatures and
// returns the new operating state.
//
// Off mode delivers minimum ventilation at neutral (recirculated)
// supply temperature. On mode delivers at least the base ventilation
// flow; above the deadband it cools with cold supply air and flow
// rising proportionally with the error, below the deadband it reheats
// at warm supply temperature. Commanded flow is smoothed through the
// damper time constant.
//
// The returned State's Flows is the plant's own buffer: the next Step
// overwrites it, so a caller that keeps the flows copies them.
func (p *Plant) Step(t time.Time, dt time.Duration, thermostats []float64) (State, error) {
	if dt <= 0 {
		return State{}, fmt.Errorf("hvac: step dt %v must be positive", dt)
	}
	on := p.OnModeAt(t)
	target := p.cfg.MinFlowPerVAV
	supply := p.cfg.NeutralSupplyTemp
	if on {
		if len(thermostats) == 0 {
			return State{}, fmt.Errorf("hvac: on-mode step requires thermostat readings")
		}
		var avg float64
		for _, v := range thermostats {
			avg += v
		}
		avg /= float64(len(thermostats))
		err := avg - p.cfg.Setpoint
		target = p.cfg.BaseFlowFraction * p.cfg.MaxFlowPerVAV
		switch {
		case err > p.cfg.Deadband:
			supply = p.cfg.CoolSupplyTemp
			target += p.cfg.Gain * (err - p.cfg.Deadband)
			if target > p.cfg.MaxFlowPerVAV {
				target = p.cfg.MaxFlowPerVAV
			}
		case err < -p.cfg.Deadband:
			supply = p.cfg.HeatSupplyTemp
		default:
			supply = p.cfg.NeutralSupplyTemp
		}
	}
	if p.excRng != nil {
		// Ornstein-Uhlenbeck dither, stationary at ExcitationStd.
		phi := math.Exp(-dt.Seconds() / p.cfg.ExcitationTau.Seconds())
		p.exc = phi*p.exc + p.cfg.ExcitationStd*math.Sqrt(1-phi*phi)*p.excRng.NormFloat64()
		if on {
			target += p.exc
			if target < p.cfg.MinFlowPerVAV {
				target = p.cfg.MinFlowPerVAV
			}
			if target > p.cfg.MaxFlowPerVAV {
				target = p.cfg.MaxFlowPerVAV
			}
		}
	}
	alpha := 1 - math.Exp(-dt.Seconds()/p.cfg.DamperTau.Seconds())
	for i := range p.flows {
		p.flows[i] += alpha * (target - p.flows[i])
	}
	// Supply temperature tracks its command through the same lag; coil
	// dynamics are comparable to damper dynamics at this fidelity.
	p.supply += alpha * (supply - p.supply)
	copy(p.out, p.flows)
	return State{Flows: p.out, SupplyTemp: p.supply, OnMode: on}, nil
}

// Logger mimics the building portal: it records the plant state at
// jittered 10-30 minute intervals, producing one airflow series per
// VAV plus a supply-temperature series.
type Logger struct {
	rng      *rand.Rand
	next     time.Time
	minIv    time.Duration
	maxIv    time.Duration
	flowSer  []*timeseries.Series
	supplySr *timeseries.Series
}

// NewLogger returns a portal logger for numVAVs boxes recording between
// minInterval and maxInterval.
func NewLogger(numVAVs int, minInterval, maxInterval time.Duration, seed int64) (*Logger, error) {
	if numVAVs <= 0 {
		return nil, fmt.Errorf("hvac: logger VAV count %d must be positive", numVAVs)
	}
	if minInterval <= 0 || maxInterval < minInterval {
		return nil, fmt.Errorf("hvac: logger intervals [%v, %v] invalid", minInterval, maxInterval)
	}
	l := &Logger{
		rng:      rand.New(rand.NewSource(seed)),
		minIv:    minInterval,
		maxIv:    maxInterval,
		supplySr: timeseries.NewSeries("supply_temp"),
	}
	for i := 0; i < numVAVs; i++ {
		l.flowSer = append(l.flowSer, timeseries.NewSeries(fmt.Sprintf("vav%d_flow", i+1)))
	}
	return l, nil
}

// Offer presents the current plant state; the logger records it only
// when its jittered interval has elapsed.
func (l *Logger) Offer(t time.Time, st State) {
	if !l.next.IsZero() && t.Before(l.next) {
		return
	}
	for i, s := range l.flowSer {
		if i < len(st.Flows) {
			s.Append(t, st.Flows[i])
		}
	}
	l.supplySr.Append(t, st.SupplyTemp)
	jitter := l.maxIv - l.minIv
	l.next = t.Add(l.minIv + time.Duration(l.rng.Int63n(int64(jitter)+1)))
}

// FlowSeries returns the recorded airflow series, one per VAV.
func (l *Logger) FlowSeries() []*timeseries.Series { return l.flowSer }

// SupplySeries returns the recorded supply-temperature series.
func (l *Logger) SupplySeries() *timeseries.Series { return l.supplySr }
