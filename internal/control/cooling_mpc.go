package control

import (
	"fmt"
	"math"

	"auditherm/internal/mat"
	"auditherm/internal/sysid"
)

// CoolingMPCConfig parameterizes the cooling-power MPC.
type CoolingMPCConfig struct {
	// Model is an identified thermal model whose inputs are
	// [cooling, occ, light, ambient], where cooling is the physical
	// cooling power proxy q = totalFlow * (T_room - T_supply) in
	// kg/s*K. Unlike the paper's flow-only input, this input has a
	// sign-correct causal effect regardless of the plant's supply
	// temperature mode, which control synthesis needs.
	Model *sysid.Model
	// NumVAVs converts the planned total flow into per-VAV commands.
	NumVAVs int
	// Setpoint is the comfort target.
	Setpoint float64
	// EnergyWeight trades cooling against comfort.
	EnergyWeight float64
	// Horizon is the lookahead in model steps.
	Horizon int
	// MinFlow and MaxFlow bound the per-VAV flow.
	MinFlow, MaxFlow float64
	// OnHour and OffHour bound the active schedule.
	OnHour, OffHour int
	// CoolSupply and NeutralSupply are the plant's supply temperatures
	// for cooling and idle delivery; HeatSupply enables morning reheat
	// (negative planned cooling) when above NeutralSupply.
	CoolSupply, NeutralSupply, HeatSupply float64
	// Iterations bounds the projected-gradient solve. Zero selects 60.
	Iterations int
}

// CoolingMPC is a receding-horizon controller that plans in cooling
// power and converts the first move into a flow + supply-temperature
// command for the plant.
type CoolingMPC struct {
	cfg  CoolingMPCConfig
	prev []float64
}

var _ Controller = (*CoolingMPC)(nil)

// NewCoolingMPC validates cfg and returns the controller.
func NewCoolingMPC(cfg CoolingMPCConfig) (*CoolingMPC, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("control: cooling MPC needs a model: %w", ErrBadConfig)
	}
	if cfg.Model.NumInputs() != 4 {
		return nil, fmt.Errorf("control: cooling MPC model has %d inputs, want [cooling occ light ambient]: %w",
			cfg.Model.NumInputs(), ErrBadConfig)
	}
	if cfg.NumVAVs <= 0 {
		return nil, fmt.Errorf("control: cooling MPC NumVAVs %d: %w", cfg.NumVAVs, ErrBadConfig)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("control: cooling MPC horizon %d: %w", cfg.Horizon, ErrBadConfig)
	}
	if cfg.MinFlow < 0 || cfg.MaxFlow <= cfg.MinFlow {
		return nil, fmt.Errorf("control: cooling MPC flow bounds [%v, %v]: %w",
			cfg.MinFlow, cfg.MaxFlow, ErrBadConfig)
	}
	if cfg.EnergyWeight < 0 {
		return nil, fmt.Errorf("control: cooling MPC energy weight %v: %w", cfg.EnergyWeight, ErrBadConfig)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 60
	}
	return &CoolingMPC{cfg: cfg}, nil
}

// Name implements Controller.
func (m *CoolingMPC) Name() string { return "cooling-mpc" }

// Decide implements Controller.
func (m *CoolingMPC) Decide(obs Observation) (Command, error) {
	cfg := m.cfg
	p := cfg.Model.NumSensors()
	if len(obs.SensorTemps) != p {
		return Command{}, fmt.Errorf("control: cooling MPC got %d sensor readings, model has %d outputs: %w",
			len(obs.SensorTemps), p, ErrBadConfig)
	}
	prev := m.prev
	if prev == nil {
		prev = append([]float64(nil), obs.SensorTemps...)
	}
	m.prev = append([]float64(nil), obs.SensorTemps...)

	h := obs.Time.Hour()
	if h < cfg.OnHour || h >= cfg.OffHour {
		return Command{FlowPerVAV: cfg.MinFlow, SupplyTemp: cfg.NeutralSupply}, nil
	}

	// Mean observed temperature sets the flow-to-power conversions.
	var mean float64
	for _, v := range obs.SensorTemps {
		mean += v
	}
	mean /= float64(p)
	coolLift := mean - cfg.CoolSupply
	if coolLift < 1 {
		coolLift = 1 // room nearly at supply temperature: conversion floor
	}
	maxCooling := float64(cfg.NumVAVs) * cfg.MaxFlow * coolLift
	var maxHeating float64
	heatLift := cfg.HeatSupply - mean
	if cfg.HeatSupply > cfg.NeutralSupply && heatLift > 1 {
		maxHeating = float64(cfg.NumVAVs) * cfg.MaxFlow * heatLift
	}

	base := baselineInputs(cfg.Horizon, obs)
	q, err := planShared(cfg.Model, obs.SensorTemps, prev, base, []int{0},
		-maxHeating, maxCooling, cfg.Setpoint, cfg.EnergyWeight, cfg.Iterations)
	if err != nil {
		return Command{}, err
	}

	minVent := float64(cfg.NumVAVs) * cfg.MinFlow
	maxTotal := float64(cfg.NumVAVs) * cfg.MaxFlow
	switch {
	case q < 0 && maxHeating > 0:
		totalFlow := -q / heatLift
		if totalFlow <= minVent {
			return Command{FlowPerVAV: cfg.MinFlow, SupplyTemp: cfg.NeutralSupply}, nil
		}
		if totalFlow > maxTotal {
			totalFlow = maxTotal
		}
		return Command{FlowPerVAV: totalFlow / float64(cfg.NumVAVs), SupplyTemp: cfg.HeatSupply}, nil
	default:
		totalFlow := q / coolLift
		if totalFlow <= minVent {
			// Ventilation only; deliver neutral air.
			return Command{FlowPerVAV: cfg.MinFlow, SupplyTemp: cfg.NeutralSupply}, nil
		}
		if totalFlow > maxTotal {
			totalFlow = maxTotal
		}
		return Command{FlowPerVAV: totalFlow / float64(cfg.NumVAVs), SupplyTemp: cfg.CoolSupply}, nil
	}
}

// baselineInputs builds the persistence-forecast input matrix over h
// steps: rows [cooling, occ, light, ambient], with zero cooling and the
// observed occupancy, lighting and ambient held.
func baselineInputs(h int, obs Observation) *mat.Dense {
	base := mat.NewDense(4, h)
	light := 0.0
	if obs.LightsOn {
		light = 1
	}
	for k := 0; k < h; k++ {
		base.Set(1, k, obs.Occupants)
		base.Set(2, k, light)
		base.Set(3, k, obs.Ambient)
	}
	return base
}

// planShared solves CoolingMPC's box-constrained quadratic program:
// choose a scalar control sequence u in [umin, umax]^h, applied
// additively on the given input channels, minimizing
// sum (T - setpoint)^2 + w * sum |u|, by projected gradient.
func planShared(model *sysid.Model, t0, prev []float64, base *mat.Dense, channels []int,
	umin, umax, setpoint, energyWeight float64, iters int) (float64, error) {
	p := model.NumSensors()
	mi, h := base.Dims()
	free, err := model.Simulate(t0, prev, base)
	if err != nil {
		return 0, err
	}
	// Impulse response to one unit of control at step 0 (zero state,
	// zero inputs elsewhere); linearity shifts it for later steps.
	impulseIn := mat.NewDense(mi, h)
	for _, c := range channels {
		impulseIn.Set(c, 0, 1)
	}
	zero := make([]float64, p)
	impulse, err := model.Simulate(zero, zero, impulseIn)
	if err != nil {
		return 0, err
	}

	u := make([]float64, h)
	grad := make([]float64, h)
	tPred := mat.NewDense(p, h)
	var gNorm float64
	for k := 0; k < h; k++ {
		for i := 0; i < p; i++ {
			gNorm += impulse.At(i, k) * impulse.At(i, k)
		}
	}
	step := 1.0 / (2*gNorm*float64(h) + 1e-9)
	for it := 0; it < iters; it++ {
		for k := 0; k < h; k++ {
			for i := 0; i < p; i++ {
				v := free.At(i, k)
				for j := 0; j <= k; j++ {
					v += impulse.At(i, k-j) * u[j]
				}
				tPred.Set(i, k, v)
			}
		}
		for j := 0; j < h; j++ {
			g := 0.0
			switch {
			case u[j] > 0:
				g = energyWeight
			case u[j] < 0:
				g = -energyWeight
			}
			for k := j; k < h; k++ {
				for i := 0; i < p; i++ {
					g += 2 * (tPred.At(i, k) - setpoint) * impulse.At(i, k-j)
				}
			}
			grad[j] = g
		}
		moved := false
		for j := 0; j < h; j++ {
			nu := u[j] - step*grad[j]
			if nu < umin {
				nu = umin
			}
			if nu > umax {
				nu = umax
			}
			if math.Abs(nu-u[j]) > 1e-12 {
				moved = true
			}
			u[j] = nu
		}
		if !moved {
			break
		}
	}
	return u[0], nil
}
