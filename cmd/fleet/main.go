// Command fleet runs the full simulate -> sysid -> cluster -> select ->
// control pipeline across a portfolio of parameter-randomized
// buildings and prints per-archetype distributions of model error,
// comfort violation hours and HVAC energy.
//
// The portfolio is deterministic in (-seed, -archetypes, -n): member i
// draws its parameters from a stream derived from (seed, archetype, i),
// so the same invocation always plans — and, through the
// content-addressed artifact store, caches — the same fleet. Reports
// are byte-identical at any -workers value, and a warm re-run against
// the same store is pure cache hits.
//
// Usage:
//
//	fleet [-n 32] [-archetypes auditorium,office,residence] [-seed 1]
//	      [-days 6] [-control-days 2] [-setpoint 22] [-controller deadband]
//	      [-workers N] [-out report.json]
//	      [-cache-dir DIR | -store SPEC] [-parallelism N]
//	      [-metrics-addr host:port] [-manifest out.json] [-trace out.jsonl]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/cliutil"
	"auditherm/internal/fleet"
)

func main() {
	n := flag.Int("n", 32, "portfolio size")
	archetypes := flag.String("archetypes", strings.Join(building.Archetypes(), ","),
		"comma-separated archetype cycle (auditorium, office, residence)")
	seed := flag.Int64("seed", 1, "fleet seed; drives every member's parameter randomizer and trace noise")
	days := flag.Int("days", 6, "identification-trace days per building")
	controlDays := flag.Int("control-days", 2, "closed-loop study days per building")
	setpoint := flag.Float64("setpoint", 22, "comfort setpoint in degC")
	controller := flag.String("controller", "deadband", "controller: deadband or fixed")
	workers := flag.Int("workers", 0, "pipeline worker count (alias for -parallelism; 0 defers to it)")
	out := flag.String("out", "", "write the full fleet report JSON to this path (atomic)")
	common := cliutil.Register()
	flag.Parse()

	// -workers is the fleet-native spelling of the shared -parallelism
	// flag; when set it wins.
	if *workers > 0 {
		common.Parallelism = *workers
	}

	rt, err := common.Start("fleet")
	if err != nil {
		cliutil.Fatal(nil, "fleet", err)
	}
	defer rt.Close()

	cfg := fleet.Config{
		N:           *n,
		Seed:        *seed,
		Days:        *days,
		ControlDays: *controlDays,
		Setpoint:    *setpoint,
		Controller:  *controller,
	}
	for _, a := range strings.Split(*archetypes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Archetypes = append(cfg.Archetypes, a)
		}
	}

	if err := run(rt, cfg, *out); err != nil {
		cliutil.Fatal(rt, "fleet", err)
	}
}

func run(rt *cliutil.Runtime, cfg fleet.Config, out string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	b := rt.NewManifest()
	b.SetSeed(cfg.Seed)
	b.SetConfig(map[string]string{
		"n":            fmt.Sprint(cfg.N),
		"archetypes":   strings.Join(cfg.Archetypes, ","),
		"days":         fmt.Sprint(cfg.Days),
		"control_days": fmt.Sprint(cfg.ControlDays),
		"setpoint":     fmt.Sprint(cfg.Setpoint),
		"controller":   cfg.Controller,
	})
	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}

	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	fmt.Printf("running %d-building fleet (%s), %d + %d days each...\n",
		cfg.N, strings.Join(cfg.Archetypes, ","), cfg.Days, cfg.ControlDays)
	rep, err := fleet.Run(ctx, eng, cfg)
	root.End()
	if err != nil {
		return err
	}

	archs := make([]string, 0, len(rep.PerArchetype))
	for a := range rep.PerArchetype {
		archs = append(archs, a)
	}
	sort.Strings(archs)
	fmt.Printf("\n%-12s %5s  %28s  %28s  %28s\n", "archetype", "count",
		"model RMSE degC (p50/p90/p99)",
		"violation h (p50/p90/p99)",
		"cooling kWh (p50/p90/p99)")
	for _, a := range archs {
		st := rep.PerArchetype[a]
		fmt.Printf("%-12s %5d  %28s  %28s  %28s\n", a, st.Count,
			dist(st.ModelRMSE), dist(st.ComfortViolationHours), dist(st.CoolingKWh))
		b.SetMetric(a+"_model_rmse_p50", float64(st.ModelRMSE.P50))
		b.SetMetric(a+"_violation_hours_p90", float64(st.ComfortViolationHours.P90))
		b.SetMetric(a+"_cooling_kwh_p50", float64(st.CoolingKWh.P50))
	}

	if out != "" {
		if err := artifact.WriteFileAtomic(out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s (%d buildings)\n", out, len(rep.Buildings))
	}
	rt.PrintCacheSummary(eng)
	return rt.WriteManifest(b)
}

// dist formats a Distribution as "p50/p90/p99".
func dist(d fleet.Distribution) string {
	return fmt.Sprintf("%.2f/%.2f/%.2f", float64(d.P50), float64(d.P90), float64(d.P99))
}
