package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/cluster"
	"auditherm/internal/control"
	"auditherm/internal/dataset"
	"auditherm/internal/mat"
	"auditherm/internal/occupancy"
	"auditherm/internal/selection"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
	"auditherm/internal/weather"
)

// HashJSON derives a config-hash entry from any JSON-marshalable
// configuration struct, for packages (e.g. fleet) composing their own
// stages on top of this engine.
func HashJSON(v any) string { return hashJSON(v) }

// hashJSON derives a config-hash entry from any JSON-marshalable
// configuration struct (struct field order makes this deterministic).
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Configs are plain data; a marshal failure is a programming
		// error surfaced as a never-matching hash.
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return string(b)
}

// ---------------------------------------------------------------------
// Simulate: the co-simulation that stands in for the paper's 14-week
// testbed trace.
// ---------------------------------------------------------------------

// Simulate defines the dataset-generation stage over the full
// generation config. The artifact is the complete dataset (frame,
// ground truth, schedule, outage plan), so every downstream stage and
// the experiments Env rehydrate from it bit-identically.
func Simulate(e *Engine, cfg dataset.Config) *Node[*dataset.Dataset] {
	return SimulateNamed(e, "simulate", cfg)
}

// SimulateNamed is Simulate under an explicit node name. Node names
// are unique per engine and part of every cache key, so fleet runs
// namespace each building's stages ("b0007/simulate") on one shared
// engine.
func SimulateNamed(e *Engine, name string, cfg dataset.Config) *Node[*dataset.Dataset] {
	return Define(e, name, artifact.DatasetCodec,
		map[string]string{"dataset_config": hashJSON(cfg), "stepper": building.StepperRevision},
		nil,
		func(ctx context.Context) (*dataset.Dataset, error) {
			return dataset.Generate(cfg)
		})
}

// DatasetFrame defines the stage that extracts the identification
// frame from a generated dataset — the bridge between the simulation
// and the analysis stages, persisted under the frame codec so
// downstream keys match whether the frame came from a simulation or an
// external CSV with identical content.
func DatasetFrame(e *Engine, ds *Node[*dataset.Dataset]) *Node[*timeseries.Frame] {
	return DatasetFrameNamed(e, "frame", ds)
}

// DatasetFrameNamed is DatasetFrame under an explicit node name.
func DatasetFrameNamed(e *Engine, name string, ds *Node[*dataset.Dataset]) *Node[*timeseries.Frame] {
	return Define(e, name, artifact.FrameCodec,
		nil,
		[]AnyNode{ds},
		func(ctx context.Context) (*timeseries.Frame, error) {
			d, err := ds.Get(ctx)
			if err != nil {
				return nil, err
			}
			return d.Frame, nil
		})
}

// ---------------------------------------------------------------------
// Dataset: pre-processing — loading an identification frame from an
// external CSV, keyed by the file's content digest.
// ---------------------------------------------------------------------

// LoadFrame defines the frame-loading stage for an external dataset
// CSV. The stage key includes the file's SHA-256, so editing the CSV
// invalidates downstream stages while renaming or touching it does
// not. The digest is computed eagerly; a missing file fails here.
func LoadFrame(e *Engine, path string) (*Node[*timeseries.Frame], error) {
	sum, err := artifact.HashFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: hashing %s: %w", path, err)
	}
	node := Define(e, "load", artifact.FrameCodec,
		map[string]string{"source_sha256": string(sum)},
		nil,
		func(ctx context.Context) (*timeseries.Frame, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return dataset.ReadCSV(f)
		})
	return node, nil
}

// ---------------------------------------------------------------------
// SysID: piecewise least-squares identification (paper eq. 4) and
// free-run evaluation on the held-out windows.
// ---------------------------------------------------------------------

// IdentifyConfig parameterizes the identification stage.
type IdentifyConfig struct {
	Order      sysid.Order
	Mode       dataset.Mode
	OnHour     int
	OffHour    int
	MaxMissing float64
	// MinWindows is the minimum usable window count (0 selects 4).
	MinWindows int
}

// splitUsable computes the usable mode windows of a frame and their
// train/validation halves — the shared pre-processing of the SysID
// stages.
func splitUsable(f *timeseries.Frame, cfg IdentifyConfig) (temps, inputs *mat.Dense, sensors []string, train, valid []timeseries.Segment, err error) {
	temps, inputs, sensors, err = dataset.FrameMatrices(f)
	if err != nil {
		return
	}
	wins := dataset.GridModeWindows(f.Grid, cfg.Mode, cfg.OnHour, cfg.OffHour)
	usable := dataset.UsableWindows([]*mat.Dense{temps, inputs}, wins, cfg.MaxMissing)
	minW := cfg.MinWindows
	if minW <= 0 {
		minW = 4
	}
	if len(usable) < minW {
		err = fmt.Errorf("pipeline: only %d usable %v windows; need at least %d: %w",
			len(usable), cfg.Mode, minW, sysid.ErrInsufficientData)
		return
	}
	train, valid = dataset.SplitWindows(usable)
	return
}

// Identify defines the model-identification stage: piecewise least
// squares over the training half of the usable mode windows.
func Identify(e *Engine, frame *Node[*timeseries.Frame], cfg IdentifyConfig) *Node[*artifact.SavedModel] {
	return IdentifyNamed(e, "sysid", frame, cfg)
}

// IdentifyNamed is Identify under an explicit node name.
func IdentifyNamed(e *Engine, name string, frame *Node[*timeseries.Frame], cfg IdentifyConfig) *Node[*artifact.SavedModel] {
	return Define(e, name, artifact.ModelCodec,
		map[string]string{"identify_config": hashJSON(cfg)},
		[]AnyNode{frame},
		func(ctx context.Context) (*artifact.SavedModel, error) {
			f, err := frame.Get(ctx)
			if err != nil {
				return nil, err
			}
			temps, inputs, sensors, train, _, err := splitUsable(f, cfg)
			if err != nil {
				return nil, err
			}
			model, err := sysid.Fit(sysid.Data{Temps: temps, Inputs: inputs}, train, cfg.Order, sysid.DefaultOptions())
			if err != nil {
				return nil, err
			}
			inputNames := make([]string, inputs.Rows())
			for i := range inputNames {
				inputNames[i] = fmt.Sprintf("u%d", i+1)
			}
			return &artifact.SavedModel{
				Model: model,
				Names: &sysid.ModelNames{Sensors: sensors, Inputs: inputNames},
			}, nil
		})
}

// EvalArtifact is the persisted free-run evaluation summary.
type EvalArtifact struct {
	// Sensors names the rows of PerSensorRMS.
	Sensors []string `json:"sensors"`
	// PerSensorRMS is each sensor's free-run RMS error (degC); NaN for
	// sensors with no evaluated steps.
	PerSensorRMS []artifact.Float `json:"per_sensor_rms"`
	// Windows and Steps count the evaluated material.
	Windows int `json:"windows"`
	Steps   int `json:"steps"`
	// HorizonSteps is the prediction horizon in grid steps.
	HorizonSteps int `json:"horizon_steps"`
	// SpectralRadius is the model's spectral radius.
	SpectralRadius artifact.Float `json:"spectral_radius"`
}

// RMSPercentile returns the q-th percentile of the finite per-sensor
// RMS values.
func (a *EvalArtifact) RMSPercentile(q float64) (float64, error) {
	ev := sysid.EvalResult{PerSensorRMS: artifact.Float64s(a.PerSensorRMS)}
	return ev.RMSPercentile(q)
}

// EvalCodec persists an EvalArtifact.
var EvalCodec = artifact.JSONCodec[*EvalArtifact]("sysid-eval", 1)

// Evaluate defines the free-run evaluation stage on the validation
// half of the usable windows.
func Evaluate(e *Engine, frame *Node[*timeseries.Frame], model *Node[*artifact.SavedModel], cfg IdentifyConfig, horizon time.Duration) *Node[*EvalArtifact] {
	return EvaluateNamed(e, "evaluate", frame, model, cfg, horizon)
}

// EvaluateNamed is Evaluate under an explicit node name.
func EvaluateNamed(e *Engine, name string, frame *Node[*timeseries.Frame], model *Node[*artifact.SavedModel], cfg IdentifyConfig, horizon time.Duration) *Node[*EvalArtifact] {
	return Define(e, name, EvalCodec,
		map[string]string{
			"identify_config": hashJSON(cfg),
			"horizon":         horizon.String(),
		},
		[]AnyNode{frame, model},
		func(ctx context.Context) (*EvalArtifact, error) {
			f, err := frame.Get(ctx)
			if err != nil {
				return nil, err
			}
			sm, err := model.Get(ctx)
			if err != nil {
				return nil, err
			}
			temps, inputs, sensors, _, valid, err := splitUsable(f, cfg)
			if err != nil {
				return nil, err
			}
			hSteps := int(horizon / f.Grid.Step)
			ev, err := sysid.Evaluate(sm.Model, sysid.Data{Temps: temps, Inputs: inputs}, valid, hSteps)
			if err != nil {
				return nil, err
			}
			// The fit (or the model file) recorded the radius; this
			// reads it rather than iterating again.
			rho, err := sm.Model.SpectralRadius()
			if err != nil {
				return nil, err
			}
			return &EvalArtifact{
				Sensors:        sensors,
				PerSensorRMS:   artifact.Floats(ev.PerSensorRMS),
				Windows:        ev.Windows,
				Steps:          ev.Steps,
				HorizonSteps:   hSteps,
				SpectralRadius: artifact.Float(rho),
			}, nil
		})
}

// ---------------------------------------------------------------------
// Cluster: spectral clustering of the sensors on their gap-free
// occupied-mode traces.
// ---------------------------------------------------------------------

// ClusterConfig parameterizes the clustering stage.
type ClusterConfig struct {
	Metric  cluster.Metric
	K       int // 0 = eigengap choice
	OnHour  int
	OffHour int
	Seed    int64
	// TrainHalf clusters on the training half of the occupied windows
	// (the selection pipeline's convention) instead of all of them.
	TrainHalf bool
	// MinSteps is the minimum gap-free step count (0 selects 10).
	MinSteps int
}

// collectOccupied gathers the gap-free occupied-mode temperature
// columns of a frame, optionally restricted to the training half.
func collectOccupied(f *timeseries.Frame, onHour, offHour int, trainHalf bool) (*mat.Dense, []string, error) {
	temps, inputs, sensors, err := dataset.FrameMatrices(f)
	if err != nil {
		return nil, nil, err
	}
	var rows [][]float64
	for i := 0; i < temps.Rows(); i++ {
		rows = append(rows, temps.RawRow(i))
	}
	for i := 0; i < inputs.Rows(); i++ {
		rows = append(rows, inputs.RawRow(i))
	}
	mask, err := timeseries.ValidMask(rows)
	if err != nil {
		return nil, nil, err
	}
	wins := dataset.GridModeWindows(f.Grid, dataset.Occupied, onHour, offHour)
	if trainHalf {
		wins, _ = dataset.SplitWindows(wins)
	}
	return dataset.CollectValid(temps, mask, wins), sensors, nil
}

// ClusterSensors defines the spectral-clustering stage.
func ClusterSensors(e *Engine, frame *Node[*timeseries.Frame], cfg ClusterConfig) *Node[*artifact.ClusterArtifact] {
	return ClusterSensorsNamed(e, "cluster", frame, cfg)
}

// ClusterSensorsNamed is ClusterSensors under an explicit node name.
func ClusterSensorsNamed(e *Engine, name string, frame *Node[*timeseries.Frame], cfg ClusterConfig) *Node[*artifact.ClusterArtifact] {
	return Define(e, name, artifact.ClusterCodec,
		map[string]string{"cluster_config": hashJSON(cfg)},
		[]AnyNode{frame},
		func(ctx context.Context) (*artifact.ClusterArtifact, error) {
			f, err := frame.Get(ctx)
			if err != nil {
				return nil, err
			}
			x, sensors, err := collectOccupied(f, cfg.OnHour, cfg.OffHour, cfg.TrainHalf)
			if err != nil {
				return nil, err
			}
			minSteps := cfg.MinSteps
			if minSteps <= 0 {
				minSteps = 10
			}
			if x.Cols() < minSteps {
				return nil, fmt.Errorf("pipeline: only %d gap-free occupied steps; not enough to cluster", x.Cols())
			}
			w, err := cluster.SimilarityMatrix(x, cfg.Metric)
			if err != nil {
				return nil, err
			}
			res, err := cluster.SpectralCluster(w, cfg.K, cluster.SpectralOptions{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			art := &artifact.ClusterArtifact{
				Sensors:     sensors,
				Assign:      append([]int(nil), res.Assign...),
				K:           res.K,
				Eigenvalues: artifact.Floats(res.Eigenvalues),
				Steps:       x.Cols(),
			}
			for _, ms := range art.Members() {
				mean, err := cluster.MeanTrace(x, ms)
				if err != nil {
					return nil, err
				}
				art.MeanC = append(art.MeanC, artifact.Float(cluster.MeanOfTrace(mean)))
			}
			return art, nil
		})
}

// ---------------------------------------------------------------------
// Select: representative-sensor strategies (SMS / SRS / RS / GP)
// scored on held-out cluster means.
// ---------------------------------------------------------------------

// SelectConfig parameterizes the selection stage.
type SelectConfig struct {
	OnHour  int
	OffHour int
	// Seeds is the number of random draws averaged for SRS/RS.
	Seeds int
	// GPMode names the GP placement path. The incremental path is the
	// only one, so the stage accepts "" and "fast"; the field stays
	// because the stage key hashes this struct's JSON.
	GPMode string
	// MinSteps is the minimum gap-free step count per half (0 = 10).
	MinSteps int
}

// SelectRepresentatives defines the representative-sensor stage over a
// clustering.
func SelectRepresentatives(e *Engine, frame *Node[*timeseries.Frame], clusters *Node[*artifact.ClusterArtifact], cfg SelectConfig) *Node[*artifact.SelectionArtifact] {
	return SelectRepresentativesNamed(e, "select", frame, clusters, cfg)
}

// SelectRepresentativesNamed is SelectRepresentatives under an
// explicit node name.
func SelectRepresentativesNamed(e *Engine, name string, frame *Node[*timeseries.Frame], clusters *Node[*artifact.ClusterArtifact], cfg SelectConfig) *Node[*artifact.SelectionArtifact] {
	return Define(e, name, artifact.SelectionCodec,
		map[string]string{"select_config": hashJSON(cfg)},
		[]AnyNode{frame, clusters},
		func(ctx context.Context) (*artifact.SelectionArtifact, error) {
			if cfg.GPMode != "" && cfg.GPMode != "fast" {
				return nil, fmt.Errorf("pipeline: unknown GP mode %q (want fast)", cfg.GPMode)
			}
			if cfg.Seeds < 1 {
				return nil, fmt.Errorf("pipeline: seeds %d must be positive", cfg.Seeds)
			}
			f, err := frame.Get(ctx)
			if err != nil {
				return nil, err
			}
			ca, err := clusters.Get(ctx)
			if err != nil {
				return nil, err
			}
			temps, inputs, sensors, err := dataset.FrameMatrices(f)
			if err != nil {
				return nil, err
			}
			var rows [][]float64
			for i := 0; i < temps.Rows(); i++ {
				rows = append(rows, temps.RawRow(i))
			}
			for i := 0; i < inputs.Rows(); i++ {
				rows = append(rows, inputs.RawRow(i))
			}
			mask, err := timeseries.ValidMask(rows)
			if err != nil {
				return nil, err
			}
			wins := dataset.GridModeWindows(f.Grid, dataset.Occupied, cfg.OnHour, cfg.OffHour)
			trainWins, validWins := dataset.SplitWindows(wins)
			trainX := dataset.CollectValid(temps, mask, trainWins)
			validX := dataset.CollectValid(temps, mask, validWins)
			minSteps := cfg.MinSteps
			if minSteps <= 0 {
				minSteps = 10
			}
			if trainX.Cols() < minSteps || validX.Cols() < minSteps {
				return nil, fmt.Errorf("pipeline: not enough gap-free steps (train %d, valid %d)", trainX.Cols(), validX.Cols())
			}
			members := ca.Members()
			score := func(sel [][]int) (float64, error) {
				errs, err := selection.ClusterMeanErrors(validX, members, sel)
				if err != nil {
					return 0, err
				}
				return stats.Percentile(errs, 99)
			}

			art := &artifact.SelectionArtifact{
				Sensors:    sensors,
				K:          ca.K,
				TrainSteps: trainX.Cols(),
				ValidSteps: validX.Cols(),
			}

			sms, err := selection.StratifiedNearMean(trainX, members)
			if err != nil {
				return nil, err
			}
			smsSel := make([][]int, len(sms))
			for c, i := range sms {
				smsSel[c] = []int{i}
			}
			v, err := score(smsSel)
			if err != nil {
				return nil, err
			}
			art.Methods = append(art.Methods, artifact.MethodSelection{
				Method: "SMS", Selected: smsSel, Score: artifact.Float(v),
			})

			var srsSum, rsSum float64
			for seed := 1; seed <= cfg.Seeds; seed++ {
				srs, err := selection.StratifiedRandom(members, 1, int64(seed))
				if err != nil {
					return nil, err
				}
				if v, err = score(srs); err != nil {
					return nil, err
				}
				srsSum += v
				rs, err := selection.SimpleRandom(len(sensors), ca.K, int64(seed))
				if err != nil {
					return nil, err
				}
				if v, err = score(selection.AssignToClusters(rs, ca.K)); err != nil {
					return nil, err
				}
				rsSum += v
			}
			art.Methods = append(art.Methods,
				artifact.MethodSelection{Method: "SRS", Score: artifact.Float(srsSum / float64(cfg.Seeds)), Draws: cfg.Seeds},
				artifact.MethodSelection{Method: "RS", Score: artifact.Float(rsSum / float64(cfg.Seeds)), Draws: cfg.Seeds},
			)

			cov, err := stats.CovarianceMatrix(trainX)
			if err != nil {
				return nil, err
			}
			gp, err := selection.GreedyMI(cov, ca.K)
			if err != nil {
				return nil, fmt.Errorf("pipeline: GP placement: %w", err)
			}
			gpSel := selection.AssignToClusters(gp, ca.K)
			if v, err = score(gpSel); err != nil {
				return nil, err
			}
			art.Methods = append(art.Methods, artifact.MethodSelection{
				Method: "GP", Selected: gpSel, Score: artifact.Float(v),
			})
			return art, nil
		})
}

// ---------------------------------------------------------------------
// Control: the closed-loop control study.
// ---------------------------------------------------------------------

// ControlConfig parameterizes the closed-loop control stage, mirroring
// the hvacsim CLI surface. The archetype fields all carry omitempty so
// the canonical auditorium config hashes exactly as before they
// existed (warm caches survive).
type ControlConfig struct {
	// Controller is "deadband" or "fixed".
	Controller string
	Days       int
	Setpoint   float64
	// Flow is the fixed controller's per-VAV flow (kg/s).
	Flow float64
	Seed int64
	// Start anchors the simulated span (zero selects the repository's
	// canonical 2013-03-04 start).
	Start time.Time
	// Spec optionally runs the loop against a non-auditorium archetype:
	// its sensors observe, its whole deployment scores comfort.
	Spec *building.Spec `json:",omitempty"`
	// SimStep and DecisionStep override the 1 min / 15 min defaults
	// when positive (fleet runs step coarser to cover many buildings).
	SimStep      time.Duration `json:",omitempty"`
	DecisionStep time.Duration `json:",omitempty"`
	// Capacity overrides the occupancy generator capacity when
	// positive; otherwise the archetype's design occupancy (or the
	// auditorium default) applies.
	Capacity int `json:",omitempty"`
}

// ControlSummary is the persisted closed-loop outcome.
type ControlSummary struct {
	Controller       string         `json:"controller"`
	ComfortRMS       artifact.Float `json:"comfort_rms_degc"`
	DiscomfortFrac   artifact.Float `json:"discomfort_frac"`
	CoolingKWh       artifact.Float `json:"cooling_kwh"`
	MeanOccupiedFlow artifact.Float `json:"mean_occupied_flow_kgs"`
	// OccupiedHours and ComfortViolationHours summarize how long the
	// space was occupied and how much of that time was out of the
	// comfort band (version 2 additions).
	OccupiedHours         artifact.Float `json:"occupied_hours"`
	ComfortViolationHours artifact.Float `json:"comfort_violation_hours"`
}

// ControlCodec persists a ControlSummary. Version 2 added the
// occupied/violation hour fields.
var ControlCodec = artifact.JSONCodec[*ControlSummary]("control", 2)

// ControlRun defines the closed-loop control/monitor stage. customize,
// when non-nil, may attach side-effectful hooks (health monitor, fault
// injection) to the loop config — the stage then runs uncached, since
// the key cannot capture the hooks' behavior.
func ControlRun(e *Engine, cc ControlConfig, customize func(*control.LoopConfig) error) *Node[*ControlSummary] {
	return ControlRunNamed(e, "control", cc, customize)
}

// ControlRunNamed is ControlRun under an explicit node name.
func ControlRunNamed(e *Engine, name string, cc ControlConfig, customize func(*control.LoopConfig) error) *Node[*ControlSummary] {
	var opts []Opt
	if customize != nil {
		opts = append(opts, NoCache())
	}
	return Define(e, name, ControlCodec,
		map[string]string{"control_config": hashJSON(cc), "stepper": building.StepperRevision},
		nil,
		func(ctx context.Context) (*ControlSummary, error) {
			var ctrl control.Controller
			switch cc.Controller {
			case "deadband":
				d := control.DefaultDeadband()
				d.Setpoint = cc.Setpoint
				ctrl = d
			case "fixed":
				ctrl = &control.FixedFlow{
					OnHour: 6, OffHour: 21,
					Flow: cc.Flow, MinFlow: 0.05,
					CoolSupply: 14, NeutralSupply: 20,
				}
			default:
				return nil, fmt.Errorf("pipeline: unknown controller %q (deadband or fixed)", cc.Controller)
			}
			start := cc.Start
			if start.IsZero() {
				start = time.Date(2013, time.March, 4, 0, 0, 0, 0, time.UTC)
			}
			occCfg := occupancy.DefaultGeneratorConfig()
			occCfg.Seed = cc.Seed
			if cc.Capacity > 0 {
				occCfg.Capacity = cc.Capacity
			} else if cc.Spec != nil {
				occCfg.Capacity = cc.Spec.Metadata().DesignOccupancy
			}
			sched, err := occupancy.Generate(start, start.AddDate(0, 0, cc.Days), occCfg)
			if err != nil {
				return nil, err
			}
			wCfg := weather.DefaultConfig()
			wCfg.Seed = cc.Seed + 1
			wm, err := weather.NewModel(wCfg)
			if err != nil {
				return nil, err
			}
			if cc.Spec != nil {
				if err := cc.Spec.Validate(); err != nil {
					return nil, err
				}
			}
			var thermoPos, allPos []building.Point
			for _, sp := range building.SensorsOf(cc.Spec) {
				allPos = append(allPos, sp.Pos)
				if sp.Thermostat {
					thermoPos = append(thermoPos, sp.Pos)
				}
			}
			simStep := cc.SimStep
			if simStep <= 0 {
				simStep = time.Minute
			}
			decisionStep := cc.DecisionStep
			if decisionStep <= 0 {
				decisionStep = 15 * time.Minute
			}
			lc := control.LoopConfig{
				Building:         building.DefaultConfig(),
				Spec:             cc.Spec,
				Start:            start,
				Days:             cc.Days,
				SimStep:          simStep,
				DecisionStep:     decisionStep,
				Schedule:         sched,
				Weather:          wm,
				SensorPositions:  thermoPos,
				ComfortPositions: allPos,
				Setpoint:         cc.Setpoint,
				NumVAVs:          4,
			}
			if customize != nil {
				if err := customize(&lc); err != nil {
					return nil, err
				}
			}
			res, err := control.RunLoop(lc, ctrl)
			if err != nil {
				return nil, err
			}
			return &ControlSummary{
				Controller:            res.Controller,
				ComfortRMS:            artifact.Float(res.ComfortRMS),
				DiscomfortFrac:        artifact.Float(res.DiscomfortFrac),
				CoolingKWh:            artifact.Float(res.CoolingKWh),
				MeanOccupiedFlow:      artifact.Float(res.MeanOccupiedFlow),
				OccupiedHours:         artifact.Float(res.OccupiedHours),
				ComfortViolationHours: artifact.Float(res.ComfortViolationHours),
			}, nil
		}, opts...)
}
