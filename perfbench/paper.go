package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
)

// paperChain is the paper's analysis chain on its own 98-day, 30 s
// trace (outages and node failures included). The run seed is the
// trace's noise seed; seed 1 is the default trace.
func paperChain(seed int64) chainSpec {
	ds := dataset.DefaultConfig()
	ds.Seed = seed
	return chainSpec{
		dataset: ds,
		ident: pipeline.IdentifyConfig{
			Order: sysid.SecondOrder, Mode: dataset.Occupied,
			OnHour: 6, OffHour: 21, MaxMissing: 0.1,
		},
		horizon: 4 * time.Hour,
		cluster: pipeline.ClusterConfig{
			Metric: cluster.Correlation, K: 4,
			OnHour: 6, OffHour: 21, Seed: 11, TrainHalf: true,
		},
		sel: pipeline.SelectConfig{OnHour: 6, OffHour: 21, Seeds: 10, GPMode: "fast"},
	}
}

// paperRun is one cold engine run of the paper chain.
type paperRun struct {
	results []pipeline.Result
	eval    *pipeline.EvalArtifact
	wall    time.Duration
}

// runPaper defines the chain on a fresh engine over an empty local store
// and resolves it.
func runPaper(ctx context.Context, c chainSpec) (*paperRun, error) {
	dir, err := os.MkdirTemp(workDir, "paper-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	eng, err := pipeline.New(pipeline.Options{CacheDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ds := pipeline.Simulate(eng, c.dataset)
	frame := pipeline.DatasetFrame(eng, ds)
	model := pipeline.Identify(eng, frame, c.ident)
	eval := pipeline.Evaluate(eng, frame, model, c.ident, c.horizon)
	sel := pipeline.SelectRepresentatives(eng, frame, pipeline.ClusterSensors(eng, frame, c.cluster), c.sel)
	ev, err := eval.Get(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := sel.Get(ctx); err != nil {
		return nil, err
	}
	return &paperRun{results: eng.Results(), eval: ev, wall: time.Since(t0)}, nil
}

// paperSetup times opening an engine over a fresh store and defining
// the chain's stages, the work before the simulator starts.
func paperSetup(c chainSpec) (float64, error) {
	return timeSetup(func(eng *pipeline.Engine) error {
		frame := pipeline.DatasetFrame(eng, pipeline.Simulate(eng, c.dataset))
		pipeline.Evaluate(eng, frame, pipeline.Identify(eng, frame, c.ident), c.ident, c.horizon)
		pipeline.SelectRepresentatives(eng, frame, pipeline.ClusterSensors(eng, frame, c.cluster), c.sel)
		return nil
	})
}

func paper98d(seed int64, seconds float64, trace bool) (outcome, error) {
	c := paperChain(seed)
	setup, err := paperSetup(c)
	if err != nil {
		return outcome{}, err
	}
	if trace {
		return paperTraced(c, seed)
	}
	ctx := context.Background()
	out := outcome{values: map[string]float64{"setup_s": setup}}
	var ref map[string]artifact.Digest
	var rms90 float64
	var walls []float64
	err = untilDeadline(seconds, func() error {
		out.attempted++
		r, err := runPaper(ctx, c)
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "paper-98d:", err)
			return nil
		}
		d := resultDigests(r.results)
		if ref == nil {
			ref = d
			if rms90, err = r.eval.RMSPercentile(90); err != nil {
				return err
			}
		} else if !maps.Equal(ref, d) {
			out.failed++
			fmt.Fprintln(os.Stderr, "paper-98d: artifact digests differ between cold runs of one seed")
		}
		walls = append(walls, r.wall.Seconds())
		return nil
	})
	if err != nil {
		return outcome{}, err
	}
	if ref == nil {
		return outcome{}, fmt.Errorf("every paper chain failed")
	}
	out.values["throughput_per_s"] = float64(c.dataset.Days*len(walls)) / sum(walls)
	out.values["latency_p50_ms"] = 1000 * median(walls)
	out.values["latency_tail_ms"] = 1000 * percentile(walls, 75)
	out.values["model_rmse_p90_degc"] = rms90
	return out, nil
}

// paperTraced mirrors fleetTraced for the single paper chain.
func paperTraced(c chainSpec, seed int64) (outcome, error) {
	before := snapCounters()
	ref, err := runPaper(context.Background(), c)
	if err != nil {
		return outcome{}, fmt.Errorf("reference run: %w", err)
	}
	v := map[string]float64{}
	engineLayers(v, before, snapCounters(), ref.wall)
	failed, err := tracedPasses(v, "paper-98d", seed, []chainSpec{c}, ref.results)
	if err != nil {
		return outcome{}, err
	}
	return outcome{attempted: 3, failed: failed, values: v}, nil
}
