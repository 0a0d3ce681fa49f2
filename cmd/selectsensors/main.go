// Command selectsensors compares the paper's sensor selection
// strategies on a dataset CSV: it clusters the sensors, selects
// representatives with SMS / SRS / RS / GP, and scores how well each
// set predicts the cluster mean temperatures on held-out data.
//
// The run is a three-stage pipeline — load → cluster → select — keyed
// by the CSV's content digest and the clustering/selection configs;
// with -cache-dir set, a warm rerun prints the comparison from the
// cached selection artifact.
//
// Usage:
//
//	selectsensors -i dataset.csv [-k 2] [-seeds 10]
//	              [-cache-dir DIR] [-force] [-parallelism N]
//	              [-metrics-addr host:port] [-manifest out.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"auditherm/internal/cliutil"
	"auditherm/internal/cluster"
	"auditherm/internal/pipeline"
)

func main() {
	in := flag.String("i", "", "input dataset CSV (required)")
	k := flag.Int("k", 2, "number of clusters (0 = eigengap)")
	seeds := flag.Int("seeds", 10, "random draws to average for SRS/RS")
	onHour := flag.Int("on", 6, "HVAC on hour")
	offHour := flag.Int("off", 21, "HVAC off hour")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("selectsensors")
	if err != nil {
		cliutil.Fatal(nil, "selectsensors", err)
	}
	defer rt.Close()

	if err := run(rt, *in, *k, *seeds, *onHour, *offHour); err != nil {
		cliutil.Fatal(rt, "selectsensors", err)
	}
}

func run(rt *cliutil.Runtime, in string, k, seeds, onHour, offHour int) error {
	if in == "" {
		return fmt.Errorf("missing -i dataset.csv")
	}
	if seeds < 1 {
		return fmt.Errorf("seeds %d must be positive", seeds)
	}
	b := rt.NewManifest()
	b.SetConfig(map[string]string{
		"input": in,
		"k":     fmt.Sprint(k),
		"seeds": fmt.Sprint(seeds),
	})

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	frameNode, err := pipeline.LoadFrame(eng, in)
	if err != nil {
		return err
	}
	// The selection pipeline clusters on the training half of the
	// occupied windows (the held-out half scores the selections).
	clusterNode := pipeline.ClusterSensors(eng, frameNode, pipeline.ClusterConfig{
		Metric: cluster.Correlation, K: k,
		OnHour: onHour, OffHour: offHour,
		Seed: 11, TrainHalf: true,
	})
	selNode := pipeline.SelectRepresentatives(eng, frameNode, clusterNode, pipeline.SelectConfig{
		OnHour: onHour, OffHour: offHour,
		Seeds: seeds, GPMode: "fast",
	})

	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	sa, err := selNode.Get(ctx)
	if err != nil {
		return err
	}
	ca, err := clusterNode.Get(ctx)
	root.End()
	if err != nil {
		return err
	}

	fmt.Printf("%d clusters over %d sensors (train %d steps, validation %d steps)\n",
		sa.K, len(sa.Sensors), sa.TrainSteps, sa.ValidSteps)
	for c, ms := range ca.Members() {
		fmt.Printf("cluster %d:", c+1)
		for _, i := range ms {
			fmt.Printf(" %s", ca.Sensors[i])
		}
		fmt.Println()
	}

	fmt.Printf("\n%-8s %-10s %s\n", "method", "99pct err", "selected")
	for _, m := range sa.Methods {
		switch {
		case m.Draws > 0:
			fmt.Printf("%-8s %-10.3f (mean of %d draws)\n", m.Method, float64(m.Score), m.Draws)
		case m.Method == "GP":
			fmt.Printf("%-8s %-10.3f %v (fast path)\n", m.Method, float64(m.Score), selectionNames(sa.Sensors, m.Selected))
		default:
			fmt.Printf("%-8s %-10.3f %v\n", m.Method, float64(m.Score), selectionNames(sa.Sensors, m.Selected))
		}
		b.SetMetric(strings.ToLower(m.Method)+"_99pct_err", float64(m.Score))
	}
	b.SetMetric("clusters_k", float64(sa.K))
	rt.PrintCacheSummary(eng)
	return rt.WriteManifest(b)
}

// selectionNames flattens a per-cluster selection to sensor names.
func selectionNames(sensors []string, sel [][]int) []string {
	var names []string
	for _, cs := range sel {
		for _, i := range cs {
			names = append(names, sensors[i])
		}
	}
	return names
}
