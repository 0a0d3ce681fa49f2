// Command cluster groups a dataset's temperature sensors by spectral
// clustering on their measurement similarity, printing the Laplacian
// eigen-spectrum, the eigengap choice of k and the cluster members.
//
// The run is a two-stage pipeline — load → cluster — keyed by the
// CSV's content digest and the clustering config; with -cache-dir set,
// the report of a warm rerun is printed entirely from the cached
// cluster artifact.
//
// Usage:
//
//	cluster -i dataset.csv [-metric correlation] [-k 0]
//	        [-cache-dir DIR] [-force] [-parallelism N]
//	        [-metrics-addr host:port] [-manifest out.json]
package main

import (
	"context"
	"flag"
	"fmt"

	"auditherm/internal/cliutil"
	"auditherm/internal/cluster"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
)

func main() {
	in := flag.String("i", "", "input dataset CSV (required)")
	metricName := flag.String("metric", "correlation", "similarity metric: correlation or euclidean")
	k := flag.Int("k", 0, "cluster count (0 = choose by largest log-eigengap)")
	onHour := flag.Int("on", 6, "HVAC on hour")
	offHour := flag.Int("off", 21, "HVAC off hour")
	common := cliutil.Register()
	flag.Parse()

	rt, err := common.Start("cluster")
	if err != nil {
		cliutil.Fatal(nil, "cluster", err)
	}
	defer rt.Close()

	if err := run(rt, *in, *metricName, *k, *onHour, *offHour); err != nil {
		cliutil.Fatal(rt, "cluster", err)
	}
}

func run(rt *cliutil.Runtime, in, metricName string, k, onHour, offHour int) error {
	if in == "" {
		return fmt.Errorf("missing -i dataset.csv")
	}
	var metric cluster.Metric
	switch metricName {
	case "correlation":
		metric = cluster.Correlation
	case "euclidean":
		metric = cluster.Euclidean
	default:
		return fmt.Errorf("unknown metric %q", metricName)
	}

	b := rt.NewManifest()
	b.SetConfig(map[string]string{
		"input":  in,
		"metric": metricName,
		"k":      fmt.Sprint(k),
	})

	eng, err := rt.Engine(b)
	if err != nil {
		return err
	}
	frameNode, err := pipeline.LoadFrame(eng, in)
	if err != nil {
		return err
	}
	clusterNode := pipeline.ClusterSensors(eng, frameNode, pipeline.ClusterConfig{
		Metric: metric, K: k,
		OnHour: onHour, OffHour: offHour,
		Seed: 11,
	})

	// The report prints purely from the cluster artifact, so a warm
	// rerun needs neither the trace matrix nor the similarity graph.
	// SIGINT/SIGTERM cancels the run context so in-flight stages unwind
	// and Close still flushes the trace, manifest and alert journal.
	sigCtx, stop := rt.SignalContext(context.Background())
	defer stop()
	ctx, root := rt.Trace(sigCtx)
	ca, err := clusterNode.Get(ctx)
	root.End()
	if err != nil {
		return err
	}
	fmt.Printf("clustering %d sensors over %d gap-free occupied steps (%v metric)\n",
		len(ca.Sensors), ca.Steps, metric)
	b.SetMetric("chosen_k", float64(ca.K))
	b.SetMetric("sensors", float64(len(ca.Sensors)))
	fmt.Printf("\nLaplacian eigenvalues (ascending):\n")
	for i, v := range ca.Eigenvalues {
		fmt.Printf("  lambda_%-2d = %.6g\n", i+1, float64(v))
	}
	fmt.Printf("\nchosen k = %d\n", ca.K)
	for c, ms := range ca.Members() {
		fmt.Printf("cluster %d (mean %.2f degC):", c+1, float64(ca.MeanC[c]))
		for _, i := range ms {
			fmt.Printf(" %s", ca.Sensors[i])
		}
		fmt.Println()
	}
	rt.PrintCacheSummary(eng)
	if rt.ManifestRequested() {
		b.StageCount("cluster", "kmeans_iterations", obs.Default.CounterValue("auditherm_cluster_kmeans_iterations_total"))
	}
	return rt.WriteManifest(b)
}
