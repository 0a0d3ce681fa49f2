// Command hvacsim runs a closed-loop simulation of the auditorium
// under a chosen controller and prints daily comfort and energy
// metrics — the tool version of the repository's control study.
//
// The loop runs as the pipeline engine's "control" stage: with
// -cache-dir set, an unmonitored rerun with the same configuration is
// served from the artifact store. Monitored runs have side effects
// (alarms, journal entries, readiness state) and always execute.
//
// With -monitor it attaches the online model-health monitor to the
// loop: the controller reads its sensors through a simulated wireless
// sensing chain (stale holds during injected fault windows), and the
// monitor compares those readings against the simulator's ground truth
// every decision step, raising alarms and health-state transitions to
// the structured log, the -alert-log journal, /metrics and /readyz.
//
// Usage:
//
//	hvacsim [-controller deadband|fixed] [-days 7] [-setpoint 21]
//	        [-monitor] [-fault-sensor 0] [-fault-start 34h] [-fault-dur 3h]
//	        [-alert-log alerts.jsonl] [-log-level info] [-cache-dir DIR]
//	        [-parallelism N] [-metrics-addr host:port] [-manifest out.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/cliutil"
	"auditherm/internal/control"
	"auditherm/internal/monitor"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
)

func main() {
	name := flag.String("controller", "deadband", "controller: deadband or fixed")
	days := flag.Int("days", 7, "simulated days")
	setpoint := flag.Float64("setpoint", 21, "comfort setpoint in degC")
	flow := flag.Float64("flow", 0.3, "per-VAV flow for the fixed controller (kg/s)")
	seed := flag.Int64("seed", 1, "seed for schedule and weather")
	faultSensor := flag.Int("fault-sensor", -1, "with -monitor: freeze this sensor index (stale-hold fault injection); -1 disables")
	faultStart := flag.Duration("fault-start", 34*time.Hour, "fault onset, offset from the simulation start")
	faultDur := flag.Duration("fault-dur", 3*time.Hour, "fault duration")
	warmup := flag.Int("monitor-warmup", 0, "override the monitor's warm-up updates (0 keeps the default)")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("hvacsim")
	if err != nil {
		cliutil.Fatal(nil, "hvacsim", err)
	}
	defer rt.Close()

	if err := run(rt, *name, *days, *setpoint, *flow, *seed,
		*faultSensor, *faultStart, *faultDur, *warmup); err != nil {
		cliutil.Fatal(rt, "hvacsim", err)
	}
}

func run(rt *cliutil.Runtime, name string, days int, setpoint, flow float64, seed int64,
	faultSensor int, faultStart, faultDur time.Duration, warmup int) error {
	switch name {
	case "deadband", "fixed":
	default:
		return fmt.Errorf("unknown controller %q (deadband or fixed)", name)
	}
	start := time.Date(2013, time.March, 4, 0, 0, 0, 0, time.UTC)
	var thermoPos []building.Point
	var thermoNames []string
	for _, sp := range building.AuditoriumSensors() {
		if sp.Thermostat {
			thermoPos = append(thermoPos, sp.Pos)
			thermoNames = append(thermoNames, sp.Name())
		}
	}

	// Monitored loops push alarms into the journal and readiness state,
	// so they run uncached: the customize hook attaches the monitor and
	// optional fault injection and ControlRun disables caching for it.
	var health *monitor.Monitor
	var customize func(*control.LoopConfig) error
	if rt.MonitorEnabled() {
		mcfg := monitor.DefaultConfig()
		if warmup > 0 {
			mcfg.Warmup = warmup
		}
		// The ground-truth residual is exactly zero under perfect
		// sensing, so the baseline floor sets the alarm scale: a held
		// reading a few tenths of a degree stale standardizes to a
		// large z.
		mcfg.MinStd = 0.02
		var err error
		health, err = monitor.New(thermoNames, mcfg)
		if err != nil {
			return err
		}
		if err := rt.AttachMonitor(health); err != nil {
			return err
		}
		customize = func(cfg *control.LoopConfig) error {
			cfg.Health = health
			if faultSensor >= 0 {
				if faultSensor >= len(thermoPos) {
					return fmt.Errorf("fault sensor %d outside %d thermostat sensors", faultSensor, len(thermoPos))
				}
				cfg.Sense = staleHold(faultSensor, start.Add(faultStart), start.Add(faultStart).Add(faultDur), len(thermoPos))
				rt.Log.Info("fault injection armed",
					"sensor", thermoNames[faultSensor],
					"start", start.Add(faultStart).Format(time.RFC3339),
					"dur", faultDur.String())
			}
			return nil
		}
	}

	b := rt.NewManifest()
	b.SetSeed(seed)
	b.SetConfig(map[string]string{
		"controller": name,
		"days":       fmt.Sprint(days),
		"setpoint":   fmt.Sprint(setpoint),
		"flow":       fmt.Sprint(flow),
		"monitor":    fmt.Sprint(rt.MonitorEnabled()),
	})

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	node := pipeline.ControlRun(eng, pipeline.ControlConfig{
		Controller: name, Days: days,
		Setpoint: setpoint, Flow: flow,
		Seed: seed, Start: start,
	}, customize)

	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	fmt.Printf("running %s controller over %d days (setpoint %.1f degC)...\n", name, days, setpoint)
	res, err := node.Get(ctx)
	root.End()
	if err != nil {
		return err
	}
	fmt.Printf("\ncontroller:           %s\n", res.Controller)
	fmt.Printf("comfort RMS:          %.2f degC (occupied hours, all sensor positions)\n", float64(res.ComfortRMS))
	fmt.Printf("discomfort fraction:  %.1f%% (|PMV| deviation > 0.5 from setpoint)\n", 100*float64(res.DiscomfortFrac))
	fmt.Printf("cooling delivered:    %.1f kWh thermal\n", float64(res.CoolingKWh))
	fmt.Printf("mean occupied flow:   %.2f kg/s\n", float64(res.MeanOccupiedFlow))
	if health != nil {
		worst, perState := health.Verdict()
		fmt.Printf("model health:         %s", worst)
		for _, st := range []monitor.State{monitor.Faulty, monitor.Degraded, monitor.Recovered} {
			if n := perState[st]; n > 0 {
				fmt.Printf("  %d %s", n, st)
			}
		}
		fmt.Println()
		b.SetMetric("health_worst_state", float64(worst))
		b.SetMetric("health_alarms_total",
			float64(obs.Default.CounterValue("auditherm_monitor_alarms_total")))
		b.SetMetric("health_transitions_total",
			float64(obs.Default.CounterValue("auditherm_monitor_transitions_total")))
	}
	rt.PrintCacheSummary(eng)
	if rt.ManifestRequested() {
		b.SetMetric("comfort_rms_degc", float64(res.ComfortRMS))
		b.SetMetric("discomfort_frac", float64(res.DiscomfortFrac))
		b.SetMetric("cooling_kwh", float64(res.CoolingKWh))
		b.SetMetric("mean_occupied_flow_kgs", float64(res.MeanOccupiedFlow))
		b.StageCount("control", "ticks", obs.Default.CounterValue("auditherm_control_ticks_total"))
		b.StageCount("control", "decisions", obs.Default.CounterValue("auditherm_control_decisions_total"))
	}
	return rt.WriteManifest(b)
}

// staleHold builds a Sense layer that freezes one sensor at its
// reading from the fault onset for the duration of the window — the
// signature of a report-on-change node whose radio (or battery) died.
func staleHold(sensor int, from, to time.Time, n int) func(time.Time, []float64) []float64 {
	held := 0.0
	haveHeld := false
	out := make([]float64, n)
	return func(t time.Time, truth []float64) []float64 {
		copy(out, truth)
		if !t.Before(from) && t.Before(to) {
			if !haveHeld {
				held = truth[sensor]
				haveHeld = true
			}
			out[sensor] = held
		} else {
			haveHeld = false
		}
		return out
	}
}
