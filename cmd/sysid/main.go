// Command sysid identifies first- and second-order thermal models from
// a dataset CSV (as produced by audsim), evaluates their free-run
// prediction error on held-out days and prints a per-sensor report.
//
// The run is a three-stage pipeline — load → sysid → evaluate — keyed
// by the CSV's content digest and the identification config: with
// -cache-dir set, rerunning on an unchanged dataset rehydrates the
// fitted model and evaluation from the artifact store.
//
// Usage:
//
//	sysid -i dataset.csv [-order 2] [-mode occupied] [-horizon 13h30m]
//	      [-cache-dir DIR] [-force] [-parallelism N]
//	      [-metrics-addr host:port] [-manifest out.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
	"auditherm/internal/mat"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
)

func main() {
	in := flag.String("i", "", "input dataset CSV (required)")
	order := flag.Int("order", 2, "model order (1 or 2)")
	modeName := flag.String("mode", "occupied", "operating mode: occupied or unoccupied")
	horizon := flag.Duration("horizon", 13*time.Hour+30*time.Minute, "prediction horizon")
	savePath := flag.String("save", "", "write the identified model as JSON to this path")
	onHour := flag.Int("on", 6, "HVAC on hour")
	offHour := flag.Int("off", 21, "HVAC off hour")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("sysid")
	if err != nil {
		cliutil.Fatal(nil, "sysid", err)
	}
	defer rt.Close()

	if err := run(rt, *in, *order, *modeName, *horizon, *onHour, *offHour, *savePath); err != nil {
		cliutil.Fatal(rt, "sysid", err)
	}
}

func run(rt *cliutil.Runtime, in string, orderN int, modeName string, horizon time.Duration, onHour, offHour int, savePath string) error {
	if in == "" {
		return fmt.Errorf("missing -i dataset.csv")
	}
	var order sysid.Order
	switch orderN {
	case 1:
		order = sysid.FirstOrder
	case 2:
		order = sysid.SecondOrder
	default:
		return fmt.Errorf("order %d not supported (1 or 2)", orderN)
	}
	var mode dataset.Mode
	switch modeName {
	case "occupied":
		mode = dataset.Occupied
	case "unoccupied":
		mode = dataset.Unoccupied
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	b := rt.NewManifest()
	b.SetConfig(map[string]string{
		"input":   in,
		"order":   fmt.Sprint(orderN),
		"mode":    modeName,
		"horizon": horizon.String(),
	})

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	idCfg := pipeline.IdentifyConfig{
		Order: order, Mode: mode,
		OnHour: onHour, OffHour: offHour,
		MaxMissing: 0.1,
	}
	frameNode, err := pipeline.LoadFrame(eng, in)
	if err != nil {
		return err
	}
	modelNode := pipeline.Identify(eng, frameNode, idCfg)
	evalNode := pipeline.Evaluate(eng, frameNode, modelNode, idCfg, horizon)

	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	ev, err := evalNode.Get(ctx)
	if err != nil {
		return err
	}
	// Presentation context (channel counts, window split) comes from
	// the frame; rehydrated or freshly loaded, the numbers match.
	frame, err := frameNode.Get(ctx)
	if err != nil {
		return err
	}
	temps, inputs, sensors, err := dataset.FrameMatrices(frame)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d sensors, %d inputs, %d steps at %v\n",
		in, len(sensors), inputs.Rows(), frame.Grid.N, frame.Grid.Step)
	wins := dataset.GridModeWindows(frame.Grid, mode, onHour, offHour)
	usable := dataset.UsableWindows([]*mat.Dense{temps, inputs}, wins, idCfg.MaxMissing)
	train, valid := dataset.SplitWindows(usable)
	fmt.Printf("%v windows: %d usable (%d train / %d validation)\n", mode, len(usable), len(train), len(valid))

	b.SetMetric("spectral_radius", float64(ev.SpectralRadius))
	b.SetMetric("evaluated_windows", float64(ev.Windows))
	fmt.Printf("\n%v model: spectral radius %.4f, %d windows evaluated, horizon %v (%d steps)\n",
		order, float64(ev.SpectralRadius), ev.Windows, horizon, ev.HorizonSteps)
	fmt.Printf("%-8s %s\n", "sensor", "RMS (degC)")
	perRMS := artifact.Float64s(ev.PerSensorRMS)
	for i, name := range ev.Sensors {
		fmt.Printf("%-8s %.3f\n", name, perRMS[i])
	}
	for _, q := range []float64{50, 90, 99} {
		v, err := ev.RMSPercentile(q)
		if err != nil {
			return err
		}
		b.SetMetric(fmt.Sprintf("rms_p%.0f_degc", q), v)
		fmt.Printf("%2.0fth percentile RMS: %.3f degC\n", q, v)
	}
	med, err := stats.Percentile(perRMS, 50)
	if err == nil && med > 2 {
		fmt.Println("warning: median RMS above 2 degC; check data quality or horizon")
	}
	if savePath != "" {
		sm, err := modelNode.Get(ctx)
		if err != nil {
			return err
		}
		if err := artifact.WriteFileAtomic(savePath, func(w io.Writer) error {
			return sm.Model.Save(w, sm.Names)
		}); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", savePath)
	}
	root.End()
	rt.PrintCacheSummary(eng)
	if rt.ManifestRequested() {
		b.StageCount("sysid", "fits", obs.Default.CounterValue("auditherm_sysid_fits_total"))
		b.StageCount("evaluate", "evaluations", obs.Default.CounterValue("auditherm_sysid_evaluations_total"))
	}
	return rt.WriteManifest(b)
}
