// Command serve is the long-running request-serving daemon: the
// paper's workflow stages (sysid, cluster, select, control, the
// experiment reports) exposed as HTTP endpoints over one shared
// runtime and artifact store.
//
// The daemon constructs the shared surface once at startup — the
// cliutil runtime, the metrics listener, the trace exporter — and
// serves each request as a pipeline-stage composition with its own
// run ID (X-Auditherm-Run header), request span and, with -run-dir,
// run manifest. Responses are deterministic JSON: a warm request
// replays the cold run's bytes (X-Auditherm-Cache: hit).
//
// API (all on the -metrics-addr/-addr listener, next to /metrics,
// /healthz, /readyz and /debug/*):
//
//	GET /v1/experiments                    catalog of report ids
//	GET /v1/report?id=table1               one experiment report
//	GET /v1/sysid?order=2&mode=occupied    identification + evaluation
//	GET /v1/cluster?metric=correlation     spectral sensor clustering
//	GET /v1/select?k=2&seeds=10            representative selection
//	GET /v1/control?controller=deadband    closed-loop control study
//	GET /v1/status                         live daemon state
//	GET/PUT /v1/artifacts/{digest}         content-addressed artifact
//	                                       exchange (remote store tier)
//
// Lifecycle: SIGINT/SIGTERM starts a graceful drain — /readyz flips
// to 503 so load balancers deregister, new API requests are rejected,
// in-flight requests finish, then the trace file, manifest and
// journal flush and the listener closes. A second signal exits
// immediately.
//
// Usage:
//
//	serve [-addr :8080] [-days 98] [-sim-step 30s] [-run-dir DIR]
//	      [-max-inflight 4] [-response-cache 128] [-drain-timeout 30s]
//	      [-cache-dir DIR] [-trace FILE] [-manifest FILE] ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for the API + metrics + probe listener (used when -metrics-addr is unset)")
	days := flag.Int("days", 98, "simulated dataset length in days (the daemon's building trace)")
	simStep := flag.Duration("sim-step", 30*time.Second, "dataset physics/sensing step")
	runDir := flag.String("run-dir", "", "write one run manifest per request into this directory as <runID>.json")
	maxInflight := flag.Int("max-inflight", 4, "concurrently computing requests (cache hits bypass the gate)")
	respCache := flag.Int("response-cache", 128, "in-memory response LRU capacity (entries)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	common := cliutil.Register()
	flag.Parse()

	// The daemon has exactly one listener; -addr names it unless the
	// shared -metrics-addr flag was given explicitly.
	if common.MetricsAddr == "" {
		common.MetricsAddr = *addr
	}

	rt, err := common.Start("serve")
	if err != nil {
		cliutil.Fatal(nil, "serve", err)
	}
	defer rt.Close()

	if err := run(rt, *days, *simStep, *runDir, *maxInflight, *respCache, *drainTimeout, nil); err != nil {
		cliutil.Fatal(rt, "serve", err)
	}
}

// run wires the daemon and blocks until a signal starts the drain.
// ready, when non-nil, receives the server once the API is mounted
// (tests use it to locate the listener and the server handle).
func run(rt *cliutil.Runtime, days int, simStep time.Duration, runDir string,
	maxInflight, respCache int, drainTimeout time.Duration, ready chan<- *serve.Server) error {
	if rt.Metrics == nil {
		return fmt.Errorf("no listener (empty -addr and -metrics-addr)")
	}
	if days < 1 {
		return fmt.Errorf("days %d must be positive", days)
	}

	dcfg := dataset.DefaultConfig()
	dcfg.Days = days
	dcfg.SimStep = simStep

	b := rt.NewManifest()
	b.SetConfig(map[string]string{
		"days":     fmt.Sprint(days),
		"sim_step": simStep.String(),
		"addr":     rt.Metrics.Addr,
	})

	// The signal context governs the daemon's lifetime only; requests
	// run on their own (client-scoped) contexts, so a drain never
	// cancels in-flight work.
	ctx, stop := rt.SignalContext(context.Background())
	defer stop()
	_, root := rt.Trace(context.Background())

	srv, err := serve.New(serve.Config{
		Dataset:       dcfg,
		CacheDir:      rt.CacheDir(),
		Store:         rt.StoreSpec(),
		StoreToken:    os.Getenv("AUDITHERM_STORE_TOKEN"),
		Force:         rt.ForceRequested(),
		Workers:       rt.Parallelism(),
		MaxInFlight:   maxInflight,
		ResponseCache: respCache,
		RunDir:        runDir,
	}, rt.Log, root)
	if err != nil {
		return err
	}
	srv.Mount(rt.Metrics)
	store := ""
	if srv.Backend() != nil {
		store = srv.Backend().Name()
	}
	rt.Log.Info("serving", "addr", rt.Metrics.Addr, "days", days, "store", store)
	if ready != nil {
		ready <- srv
	}

	<-ctx.Done()

	// Graceful drain: deregister (readyz 503), stop intake, let
	// in-flight requests finish, then fall through to rt.Close which
	// flushes trace/manifest/journal and closes the listener.
	rt.Metrics.BeginDrain()
	srv.BeginDrain()
	if err := srv.Wait(drainTimeout); err != nil {
		rt.Log.Error("drain incomplete", "error", err.Error())
		b.AddNote(err.Error())
	}
	// The backend closes only after the drain: in-flight requests hold
	// engines over it, and the local tier's Close waits out its sweeper.
	if err := srv.Close(); err != nil {
		rt.Log.Error("closing artifact store", "error", err.Error())
	}
	root.End()
	b.SetMetric("requests_total", float64(obs.Default.CounterValue("auditherm_serve_requests_total")))
	b.SetMetric("response_cache_hits", float64(obs.Default.CounterValue("auditherm_serve_response_cache_hits_total")))
	return rt.WriteManifest(b)
}
