// Command audsim generates the synthetic auditorium dataset — the
// stand-in for the paper's closed 14-week testbed trace — and writes it
// as CSV (one column per channel, empty cells for gaps).
//
// The generation runs as the pipeline engine's "simulate" stage: with
// -cache-dir (or $AUDITHERM_CACHE) set, a repeated invocation with the
// same configuration rehydrates the dataset from the content-addressed
// artifact store instead of re-simulating.
//
// Usage:
//
//	audsim [-days N] [-seed S] [-o dataset.csv] [-truth truth.csv]
//	       [-cache-dir DIR] [-force] [-parallelism N]
//	       [-metrics-addr host:port] [-manifest out.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/timeseries"
)

func main() {
	days := flag.Int("days", 98, "trace length in days")
	seed := flag.Int64("seed", 1, "random seed for all stochastic components")
	out := flag.String("o", "dataset.csv", "output CSV path (\"-\" for stdout)")
	truthOut := flag.String("truth", "", "optional path for the noise-free ground-truth CSV")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("audsim")
	if err != nil {
		cliutil.Fatal(nil, "audsim", err)
	}
	defer rt.Close()

	if err := run(rt, *days, *seed, *out, *truthOut); err != nil {
		cliutil.Fatal(rt, "audsim", err)
	}
}

func run(rt *cliutil.Runtime, days int, seed int64, out, truthOut string) error {
	cfg := dataset.DefaultConfig()
	cfg.Days = days
	cfg.Seed = seed
	// The default failure plan is shaped for the paper's 98-day trace;
	// scale it to the requested length so short traces keep usable days.
	cfg.NumLongOutages = days * 7 / 98
	cfg.NumShortOutages = days * 12 / 98

	b := rt.NewManifest()
	b.SetSeed(seed)
	b.SetConfig(map[string]string{
		"days":   fmt.Sprint(days),
		"output": out,
	})

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	sim := pipeline.Simulate(eng, cfg)

	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	t0 := time.Now()
	d, err := sim.Get(ctx)
	root.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d days (%d grid steps, %d channels, %.1f%% missing) in %v\n",
		days, d.Frame.Grid.N, len(d.Frame.Channels), 100*d.Frame.MissingFraction(),
		time.Since(t0).Round(time.Millisecond))

	b.StartStage("write")
	if err := writeCSV(out, d.Frame); err != nil {
		return err
	}
	if truthOut != "" {
		if err := writeCSV(truthOut, d.Truth); err != nil {
			return err
		}
	}
	b.EndStage()
	occ, err := d.UsableDays(dataset.Occupied, 0.1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "usable occupied days: %d of %d\n", len(occ), days)
	rt.PrintCacheSummary(eng)
	if rt.ManifestRequested() {
		b.SetMetric("grid_steps", float64(d.Frame.Grid.N))
		b.SetMetric("channels", float64(len(d.Frame.Channels)))
		b.SetMetric("missing_fraction", d.Frame.MissingFraction())
		b.SetMetric("usable_occupied_days", float64(len(occ)))
		b.StageCount("simulate", "sim_steps", obs.Default.CounterValue("auditherm_dataset_sim_steps_total"))
		b.StageCount("simulate", "samples", obs.Default.CounterValue("auditherm_dataset_samples_total"))
	}
	return rt.WriteManifest(b)
}

// writeCSV writes a frame atomically: the CSV streams into a temp file
// that is renamed over path only once complete, so a killed run never
// leaves a truncated dataset behind.
func writeCSV(path string, f *timeseries.Frame) error {
	if path == "-" {
		return dataset.WriteCSV(os.Stdout, f)
	}
	if err := artifact.WriteFileAtomic(path, func(w io.Writer) error {
		return dataset.WriteCSV(w, f)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
