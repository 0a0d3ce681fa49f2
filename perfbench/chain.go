package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/cluster"
	"auditherm/internal/control"
	"auditherm/internal/dataset"
	"auditherm/internal/fleet"
	"auditherm/internal/mat"
	"auditherm/internal/occupancy"
	"auditherm/internal/pipeline"
	"auditherm/internal/selection"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
	"auditherm/internal/weather"
)

// chainSpec is one building's stage chain, with the same configs the
// pipeline stages get, so the chain below computes the same artifacts
// as the engine and can be checked digest for digest against it.
type chainSpec struct {
	// prefix namespaces stage names ("b0003/" in a fleet, "" alone).
	prefix  string
	dataset dataset.Config
	ident   pipeline.IdentifyConfig
	horizon time.Duration
	cluster pipeline.ClusterConfig
	sel     pipeline.SelectConfig
	// control and member are set for fleet members only: the chain
	// then runs the control study and persists the member summary.
	control *pipeline.ControlConfig
	member  *fleet.Member
}

// runChain drives one building's chain through the layers' public
// functions, one call per span, persisting each stage's artifact
// through store with its pipeline codec and reading it back. The
// engine does the same work inside its stage closures; here each layer
// call is timed from outside. It returns every persisted artifact's
// content digest by stage name, which the output checks compare with
// the engine's.
func runChain(ctx context.Context, t *tracer, store artifact.Backend, c chainSpec) (map[string]artifact.Digest, error) {
	out := map[string]artifact.Digest{}

	ds, err := traced(ctx, t, "dataset.generate", func() (*dataset.Dataset, error) {
		return dataset.Generate(c.dataset)
	})
	if err != nil {
		return nil, err
	}
	if err := persist(ctx, t, store, out, c.prefix+"simulate", artifact.DatasetCodec, ds); err != nil {
		return nil, err
	}
	f := ds.Frame
	if err := persist(ctx, t, store, out, c.prefix+"frame", artifact.FrameCodec, f); err != nil {
		return nil, err
	}

	// sysid: identify on the training half, evaluate on the held-out half.
	p, err := traced(ctx, t, "dataset.prepare", func() (prepared, error) {
		return prepare(f, c.ident)
	})
	if err != nil {
		return nil, err
	}
	model, err := traced(ctx, t, "sysid.fit", func() (*sysid.Model, error) {
		return sysid.Fit(p.data, p.train, c.ident.Order, sysid.DefaultOptions())
	})
	if err != nil {
		return nil, err
	}
	inputNames := make([]string, p.data.Inputs.Rows())
	for i := range inputNames {
		inputNames[i] = fmt.Sprintf("u%d", i+1)
	}
	saved := &artifact.SavedModel{Model: model, Names: &sysid.ModelNames{Sensors: p.sensors, Inputs: inputNames}}
	if err := persist(ctx, t, store, out, c.prefix+"sysid", artifact.ModelCodec, saved); err != nil {
		return nil, err
	}
	hSteps := int(c.horizon / f.Grid.Step)
	ev, err := traced(ctx, t, "sysid.evaluate", func() (*sysid.EvalResult, error) {
		return sysid.Evaluate(model, p.data, p.valid, hSteps)
	})
	if err != nil {
		return nil, err
	}
	rho, err := traced(ctx, t, "sysid.spectral_radius", model.SpectralRadius)
	if err != nil {
		return nil, err
	}
	eval := &pipeline.EvalArtifact{
		Sensors:        p.sensors,
		PerSensorRMS:   artifact.Floats(ev.PerSensorRMS),
		Windows:        ev.Windows,
		Steps:          ev.Steps,
		HorizonSteps:   hSteps,
		SpectralRadius: artifact.Float(rho),
	}
	if err := persist(ctx, t, store, out, c.prefix+"evaluate", pipeline.EvalCodec, eval); err != nil {
		return nil, err
	}

	ca, err := clusterStage(ctx, t, f, c.cluster)
	if err != nil {
		return nil, err
	}
	if err := persist(ctx, t, store, out, c.prefix+"cluster", artifact.ClusterCodec, ca); err != nil {
		return nil, err
	}
	sa, err := selectStage(ctx, t, f, ca, c.sel)
	if err != nil {
		return nil, err
	}
	if err := persist(ctx, t, store, out, c.prefix+"select", artifact.SelectionCodec, sa); err != nil {
		return nil, err
	}

	if c.control == nil {
		return out, nil
	}
	cs, err := controlStage(ctx, t, *c.control)
	if err != nil {
		return nil, err
	}
	if err := persist(ctx, t, store, out, c.prefix+"control", pipeline.ControlCodec, cs); err != nil {
		return nil, err
	}
	rmse, err := eval.RMSPercentile(50)
	if err != nil {
		return nil, err
	}
	m := c.member
	summary := &fleet.BuildingResult{
		Index:                 m.Index,
		ID:                    m.ID,
		Archetype:             m.Spec.Archetype,
		Metadata:              m.Spec.Metadata(),
		ModelRMSE:             artifact.Float(rmse),
		SpectralRadius:        eval.SpectralRadius,
		Clusters:              ca.K,
		ComfortRMS:            cs.ComfortRMS,
		ComfortViolationHours: cs.ComfortViolationHours,
		OccupiedHours:         cs.OccupiedHours,
		CoolingKWh:            cs.CoolingKWh,
	}
	if err := persist(ctx, t, store, out, c.prefix+"summary", fleet.BuildingCodec, summary); err != nil {
		return nil, err
	}
	return out, nil
}

// persist writes v under a key derived from the stage name, records
// its content digest, and reads it back through the codec (a decode
// failure is an output-check failure).
func persist[T any](ctx context.Context, t *tracer, store artifact.Backend, out map[string]artifact.Digest, stage string, codec artifact.Codec[T], v T) error {
	key := artifact.Key(stage, codec.Name, codec.Version, "", nil)
	info, err := store.Put(ctx, key, func(w io.Writer) error { return codec.Encode(w, v) })
	if err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	out[stage] = info.Content
	rc, err := store.Open(ctx, key)
	if err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	defer rc.Close()
	if _, err := traced(ctx, t, "artifact.decode", func() (T, error) { return codec.Decode(rc) }); err != nil {
		return fmt.Errorf("%s read-back: %w", stage, err)
	}
	return nil
}

// prepared is a frame split into the sysid inputs: the usable mode
// windows' training and validation halves.
type prepared struct {
	data         sysid.Data
	sensors      []string
	train, valid []timeseries.Segment
}

func prepare(f *timeseries.Frame, cfg pipeline.IdentifyConfig) (prepared, error) {
	temps, inputs, sensors, err := dataset.FrameMatrices(f)
	if err != nil {
		return prepared{}, err
	}
	wins := dataset.GridModeWindows(f.Grid, cfg.Mode, cfg.OnHour, cfg.OffHour)
	usable := dataset.UsableWindows([]*mat.Dense{temps, inputs}, wins, cfg.MaxMissing)
	minW := cfg.MinWindows
	if minW <= 0 {
		minW = 4
	}
	if len(usable) < minW {
		return prepared{}, fmt.Errorf("only %d usable %v windows; need at least %d", len(usable), cfg.Mode, minW)
	}
	train, valid := dataset.SplitWindows(usable)
	return prepared{data: sysid.Data{Temps: temps, Inputs: inputs}, sensors: sensors, train: train, valid: valid}, nil
}

// occupiedColumns returns the frame's temperature matrix, sensor names,
// the gap-free column mask and the occupied windows.
func occupiedColumns(f *timeseries.Frame, onHour, offHour int) (*mat.Dense, []string, []bool, []timeseries.Segment, error) {
	temps, inputs, sensors, err := dataset.FrameMatrices(f)
	if err != nil {
		return nil, nil, nil, nil, err
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
		return nil, nil, nil, nil, err
	}
	return temps, sensors, mask, dataset.GridModeWindows(f.Grid, dataset.Occupied, onHour, offHour), nil
}

func clusterStage(ctx context.Context, t *tracer, f *timeseries.Frame, cfg pipeline.ClusterConfig) (*artifact.ClusterArtifact, error) {
	type cols struct {
		x       *mat.Dense
		sensors []string
	}
	in, err := traced(ctx, t, "dataset.prepare", func() (cols, error) {
		temps, sensors, mask, wins, err := occupiedColumns(f, cfg.OnHour, cfg.OffHour)
		if err != nil {
			return cols{}, err
		}
		if cfg.TrainHalf {
			wins, _ = dataset.SplitWindows(wins)
		}
		return cols{dataset.CollectValid(temps, mask, wins), sensors}, nil
	})
	if err != nil {
		return nil, err
	}
	minSteps := cfg.MinSteps
	if minSteps <= 0 {
		minSteps = 10
	}
	if in.x.Cols() < minSteps {
		return nil, fmt.Errorf("only %d gap-free occupied steps; not enough to cluster", in.x.Cols())
	}
	w, err := traced(ctx, t, "cluster.similarity", func() (*mat.Dense, error) {
		return cluster.SimilarityMatrix(in.x, cfg.Metric)
	})
	if err != nil {
		return nil, err
	}
	return traced(ctx, t, "cluster.spectral", func() (*artifact.ClusterArtifact, error) {
		res, err := cluster.SpectralCluster(w, cfg.K, cluster.SpectralOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		art := &artifact.ClusterArtifact{
			Sensors:     in.sensors,
			Assign:      append([]int(nil), res.Assign...),
			K:           res.K,
			Eigenvalues: artifact.Floats(res.Eigenvalues),
			Steps:       in.x.Cols(),
		}
		for _, ms := range art.Members() {
			mean, err := cluster.MeanTrace(in.x, ms)
			if err != nil {
				return nil, err
			}
			art.MeanC = append(art.MeanC, artifact.Float(cluster.MeanOfTrace(mean)))
		}
		return art, nil
	})
}

func selectStage(ctx context.Context, t *tracer, f *timeseries.Frame, ca *artifact.ClusterArtifact, cfg pipeline.SelectConfig) (*artifact.SelectionArtifact, error) {
	if cfg.GPMode != "" && cfg.GPMode != "fast" {
		return nil, fmt.Errorf("select: the benchmark drives the fast GP path only, not %q", cfg.GPMode)
	}
	type halves struct {
		sensors        []string
		trainX, validX *mat.Dense
	}
	h, err := traced(ctx, t, "dataset.prepare", func() (halves, error) {
		temps, sensors, mask, wins, err := occupiedColumns(f, cfg.OnHour, cfg.OffHour)
		if err != nil {
			return halves{}, err
		}
		trainWins, validWins := dataset.SplitWindows(wins)
		return halves{sensors, dataset.CollectValid(temps, mask, trainWins), dataset.CollectValid(temps, mask, validWins)}, nil
	})
	if err != nil {
		return nil, err
	}
	minSteps := cfg.MinSteps
	if minSteps <= 0 {
		minSteps = 10
	}
	if h.trainX.Cols() < minSteps || h.validX.Cols() < minSteps {
		return nil, fmt.Errorf("not enough gap-free steps (train %d, valid %d)", h.trainX.Cols(), h.validX.Cols())
	}
	members := ca.Members()
	score := func(sel [][]int) (float64, error) {
		errs, err := selection.ClusterMeanErrors(h.validX, members, sel)
		if err != nil {
			return 0, err
		}
		return stats.Percentile(errs, 99)
	}
	art := &artifact.SelectionArtifact{
		Sensors:    h.sensors,
		K:          ca.K,
		TrainSteps: h.trainX.Cols(),
		ValidSteps: h.validX.Cols(),
	}
	_, err = traced(ctx, t, "selection.select", func() (struct{}, error) {
		sms, err := selection.StratifiedNearMean(h.trainX, members)
		if err != nil {
			return struct{}{}, err
		}
		smsSel := make([][]int, len(sms))
		for c, i := range sms {
			smsSel[c] = []int{i}
		}
		v, err := score(smsSel)
		if err != nil {
			return struct{}{}, err
		}
		art.Methods = append(art.Methods, artifact.MethodSelection{Method: "SMS", Selected: smsSel, Score: artifact.Float(v)})
		var srsSum, rsSum float64
		for seed := 1; seed <= cfg.Seeds; seed++ {
			srs, err := selection.StratifiedRandom(members, 1, int64(seed))
			if err != nil {
				return struct{}{}, err
			}
			if v, err = score(srs); err != nil {
				return struct{}{}, err
			}
			srsSum += v
			rs, err := selection.SimpleRandom(len(h.sensors), ca.K, int64(seed))
			if err != nil {
				return struct{}{}, err
			}
			if v, err = score(selection.AssignToClusters(rs, ca.K)); err != nil {
				return struct{}{}, err
			}
			rsSum += v
		}
		art.Methods = append(art.Methods,
			artifact.MethodSelection{Method: "SRS", Score: artifact.Float(srsSum / float64(cfg.Seeds)), Draws: cfg.Seeds},
			artifact.MethodSelection{Method: "RS", Score: artifact.Float(rsSum / float64(cfg.Seeds)), Draws: cfg.Seeds},
		)
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	_, err = traced(ctx, t, "selection.gp", func() (struct{}, error) {
		cov, err := stats.CovarianceMatrix(h.trainX)
		if err != nil {
			return struct{}{}, err
		}
		gp, err := selection.GreedyMI(cov, ca.K)
		if err != nil {
			return struct{}{}, err
		}
		gpSel := selection.AssignToClusters(gp, ca.K)
		v, err := score(gpSel)
		if err != nil {
			return struct{}{}, err
		}
		art.Methods = append(art.Methods, artifact.MethodSelection{Method: "GP", Selected: gpSel, Score: artifact.Float(v)})
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return art, nil
}

func controlStage(ctx context.Context, t *tracer, cc pipeline.ControlConfig) (*pipeline.ControlSummary, error) {
	lc, err := traced(ctx, t, "control.prepare", func() (control.LoopConfig, error) {
		return loopConfig(cc)
	})
	if err != nil {
		return nil, err
	}
	var ctrl control.Controller
	switch cc.Controller {
	case "deadband":
		d := control.DefaultDeadband()
		d.Setpoint = cc.Setpoint
		ctrl = d
	case "fixed":
		ctrl = &control.FixedFlow{OnHour: 6, OffHour: 21, Flow: cc.Flow, MinFlow: 0.05, CoolSupply: 14, NeutralSupply: 20}
	default:
		return nil, fmt.Errorf("unknown controller %q", cc.Controller)
	}
	res, err := traced(ctx, t, "control.loop", func() (*control.LoopResult, error) {
		return control.RunLoop(lc, ctrl)
	})
	if err != nil {
		return nil, err
	}
	return &pipeline.ControlSummary{
		Controller:            res.Controller,
		ComfortRMS:            artifact.Float(res.ComfortRMS),
		DiscomfortFrac:        artifact.Float(res.DiscomfortFrac),
		CoolingKWh:            artifact.Float(res.CoolingKWh),
		MeanOccupiedFlow:      artifact.Float(res.MeanOccupiedFlow),
		OccupiedHours:         artifact.Float(res.OccupiedHours),
		ComfortViolationHours: artifact.Float(res.ComfortViolationHours),
	}, nil
}

// loopConfig builds the closed-loop study's inputs (occupancy schedule,
// weather, sensor positions) the way the control stage does.
func loopConfig(cc pipeline.ControlConfig) (control.LoopConfig, error) {
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
		return control.LoopConfig{}, err
	}
	wCfg := weather.DefaultConfig()
	wCfg.Seed = cc.Seed + 1
	wm, err := weather.NewModel(wCfg)
	if err != nil {
		return control.LoopConfig{}, err
	}
	sensors := building.AuditoriumSensors()
	if cc.Spec != nil {
		if err := cc.Spec.Validate(); err != nil {
			return control.LoopConfig{}, err
		}
		sensors = cc.Spec.Sensors()
	}
	var thermoPos, allPos []building.Point
	for _, sp := range sensors {
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
	return control.LoopConfig{
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
	}, nil
}
