// Command repro regenerates every table and figure of the paper's
// evaluation on the simulated auditorium dataset and prints them in
// order. Its output is the source for EXPERIMENTS.md.
//
// Each experiment runs as a pipeline stage keyed by the dataset's
// content digest: with -cache-dir set, a warm rerun rehydrates every
// report from the artifact store and reprints the cold run's stdout
// byte for byte (progress and timing go to stderr). Changing one
// experiment's knob (say -control-days) invalidates exactly that
// stage.
//
// Usage:
//
//	repro [-only <id>] [-short] [-control-days 7]
//	      [-cache-dir DIR] [-force] [-parallelism N]
//	      [-metrics-addr host:port] [-manifest out.json]
//
// where id is one of: table1, table2, fig2 ... fig11, control, virtual. -short skips the
// slowest sweeps (Figures 7, 8, 10, 11). -metrics-addr serves live
// /metrics, /debug/vars, /debug/pprof and /debug/trace while the run
// is in flight; -manifest writes a JSON run manifest (provenance,
// per-stage wall/CPU time, artifact digests with hit/miss, headline
// metrics) when the run finishes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
	"auditherm/internal/experiments"
	"auditherm/internal/obs"
)

func main() {
	only := flag.String("only", "", "run a single experiment (table1, table2, fig2..fig11, control, virtual)")
	short := flag.Bool("short", false, "skip the slowest sweeps")
	controlDays := flag.Int("control-days", 7, "simulated days for the closed-loop control study")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("repro")
	if err != nil {
		cliutil.Fatal(nil, "repro", err)
	}
	defer rt.Close()

	if err := run(rt, os.Stdout, *only, *short, dataset.DefaultConfig(), *controlDays); err != nil {
		cliutil.Fatal(rt, "repro", err)
	}
}

// run builds the experiment DAG and prints the selected reports to w.
// Everything written to w is a pure function of the dataset config and
// the experiment knobs — progress and timing go to stderr — so a warm
// cached rerun reproduces the stream byte for byte.
func run(rt *cliutil.Runtime, w io.Writer, only string, short bool, cfg dataset.Config, controlDays int) error {
	if controlDays < 1 {
		return fmt.Errorf("control-days %d must be positive", controlDays)
	}
	b := rt.NewManifest()
	b.SetSeed(cfg.Seed)
	b.SetConfig(map[string]string{
		"only":         only,
		"short":        fmt.Sprint(short),
		"control_days": fmt.Sprint(controlDays),
	})
	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	src := experiments.NewEnvSource(eng, cfg)
	summary := experiments.SummaryReport(eng, src)

	exps := experiments.Catalog(eng, src, controlDays)

	known := only == ""
	for _, ex := range exps {
		if ex.ID == only {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", only)
	}

	t0 := time.Now()
	sum, err := summary.Get(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dataset stage ready in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(w, "%s\n", sum.Text)
	setMetrics(b, sum)

	for _, ex := range exps {
		if only != "" && ex.ID != only {
			continue
		}
		if only == "" && short && ex.Slow {
			fmt.Fprintf(w, "== %s skipped (-short) ==\n\n", ex.ID)
			continue
		}
		start := time.Now()
		rep, err := ex.Node.Get(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", ex.ID, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(w, "== %s ==\n%s\n", ex.ID, rep.Text)
		setMetrics(b, rep)
	}
	root.End()
	rt.PrintCacheSummary(eng)
	if rt.ManifestRequested() {
		b.StageCount("simulate", "sim_steps", obs.Default.CounterValue("auditherm_dataset_sim_steps_total"))
		b.StageCount("simulate", "samples", obs.Default.CounterValue("auditherm_dataset_samples_total"))
	}
	return rt.WriteManifest(b)
}

// setMetrics copies a report's headline metrics into the manifest, so
// warm cache hits restore the same manifest metrics as a cold run.
func setMetrics(b *obs.ManifestBuilder, rep *experiments.Report) {
	for k, v := range rep.Metrics {
		b.SetMetric(k, float64(v))
	}
}
