// Package cliutil centralizes the flag plumbing shared by every CLI in
// cmd/: the observability trio (-metrics-addr, -manifest,
// -parallelism) that used to be pasted into each main, plus the
// model-health flags added with the monitoring subsystem (-monitor,
// -alert-log, -log-level).
//
// Usage pattern in a main:
//
//	common := cliutil.Register()          // before tool-specific flags
//	flag.Parse()
//	rt, err := common.Start("mytool")     // applies and starts everything
//	...
//	defer rt.Close()
//
// Start returns a Runtime carrying the run ID, a structured logger, the
// optional metrics server, and manifest helpers, so each tool gets
// identical semantics for the shared surface.
package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/monitor"
	"auditherm/internal/obs"
	"auditherm/internal/par"
	"auditherm/internal/pipeline"
	"auditherm/internal/traceview"
)

// TraceRingSpans is how many of the newest completed spans /debug/trace
// keeps and renders.
const TraceRingSpans = 2048

// Common holds the values of the shared flags after flag.Parse.
type Common struct {
	MetricsAddr string
	Manifest    string
	Parallelism int
	Monitor     bool
	AlertLog    string
	LogLevel    string
	CacheDir    string
	Store       string
	Force       bool
	Trace       string

	// LogWriter overrides the structured-log destination (default
	// os.Stderr). Not a flag; tests capture logs through it.
	LogWriter io.Writer
}

// RegisterOn installs the shared flags on an explicit FlagSet, with
// their values landing in c. Tests use this to avoid the process-wide
// flag.CommandLine.
func RegisterOn(fs *flag.FlagSet, c *Common) {
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve /metrics, /debug/vars, /debug/pprof, /debug/trace, /healthz and /readyz on this address while running (\":0\" picks a port)")
	fs.StringVar(&c.Manifest, "manifest", "",
		"write a JSON run manifest to this path on completion")
	fs.IntVar(&c.Parallelism, "parallelism", par.DefaultWorkers(),
		"pipeline worker count (<= 0 selects GOMAXPROCS); results are bit-identical at any value")
	fs.BoolVar(&c.Monitor, "monitor", false,
		"enable online model-health monitoring where the tool supports it")
	fs.StringVar(&c.AlertLog, "alert-log", "",
		"append model-health alarms and state transitions to this JSONL journal")
	fs.StringVar(&c.LogLevel, "log-level", "info",
		"structured log level: debug, info, warn or error")
	fs.StringVar(&c.CacheDir, "cache-dir", os.Getenv("AUDITHERM_CACHE"),
		"content-addressed artifact cache directory; warm stages are skipped and rehydrated bit-identically (default $AUDITHERM_CACHE, empty disables caching)")
	fs.StringVar(&c.Store, "store", os.Getenv("AUDITHERM_STORE"),
		"artifact store tier spec, hot to cold: mem[:SIZE],local[:SIZE][=DIR],remote=URL (default $AUDITHERM_STORE; empty selects a plain local store at -cache-dir; remote auth via $AUDITHERM_STORE_TOKEN)")
	fs.BoolVar(&c.Force, "force", false,
		"recompute every pipeline stage even when its artifact is cached, refreshing the cache in place")
	fs.StringVar(&c.Trace, "trace", "",
		"stream completed spans to this JSONL trace file (inspect with tracetool report / chrome)")
}

// Register installs the shared flags on the process-wide
// flag.CommandLine and returns the backing struct.
func Register() *Common {
	c := &Common{}
	RegisterOn(flag.CommandLine, c)
	return c
}

// Runtime is the started shared environment of one CLI run.
type Runtime struct {
	// Tool is the CLI name (used as the manifest tool and log attr).
	Tool string
	// RunID correlates log records, journal entries and the manifest.
	RunID string
	// Log is the run's structured logger (JSON to stderr).
	Log *slog.Logger
	// Metrics is the HTTP server, or nil when -metrics-addr is unset.
	Metrics *obs.MetricsServer

	common   *Common
	journal  *monitor.Journal
	trace    *obs.TraceFile // the run's exporter: -trace file and/or ring
	traceOut *os.File       // the -trace file under trace, or nil
	root     *obs.Span
	monitors []*monitor.Monitor

	// manifest is the builder from NewManifest, kept so an interrupted
	// run's Close can still flush it; manifestDone marks an explicit
	// WriteManifest so Close does not write twice.
	manifest     *obs.ManifestBuilder
	manifestDone bool

	// store is the run's artifact backend, built once by OpenStore and
	// closed by Close; storeSet distinguishes "not opened yet" from
	// "opened and caching is off" (store == nil).
	store    artifact.Backend
	storeErr error
	storeSet bool

	// signalStop detaches the SignalContext handler (idempotent).
	signalStop func()
	// exitFn is swapped by tests that exercise the second-signal path.
	exitFn func(int)
}

// Start applies the parsed shared flags: sets the parallel worker
// count, builds the run ID and logger, installs the span exporter,
// and starts the metrics server when requested. The exporter encodes
// each completed span once and writes the line to the -trace file
// and, with -metrics-addr, to the ring /debug/trace renders. Call
// flag.Parse first.
func (c *Common) Start(tool string) (*Runtime, error) {
	level, err := obs.ParseLevel(c.LogLevel)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tool, err)
	}
	par.SetDefaultWorkers(c.Parallelism)
	rt := &Runtime{
		Tool:   tool,
		RunID:  obs.NewRunID(),
		common: c,
	}
	logw := io.Writer(os.Stderr)
	if c.LogWriter != nil {
		logw = c.LogWriter
	}
	rt.Log = obs.NewLogger(logw, level, rt.RunID).With(slog.String("tool", tool))
	var sinks []io.Writer
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("%s: creating trace file: %w", tool, err)
		}
		rt.traceOut = f
		sinks = append(sinks, f)
		rt.Log.Info("trace enabled", slog.String("path", c.Trace))
	}
	var ring *obs.TraceRing
	if c.MetricsAddr != "" {
		ring = obs.NewTraceRing(TraceRingSpans)
		sinks = append(sinks, ring)
	}
	if len(sinks) > 0 {
		rt.trace = obs.NewTraceWriter(io.MultiWriter(sinks...), rt.RunID, tool)
		obs.SetTraceExporter(rt.trace)
	}
	if c.MetricsAddr != "" {
		ms, err := obs.ServeMetrics(c.MetricsAddr, obs.Default)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("%s: %w", tool, err)
		}
		ms.Handle("/debug/trace", debugTrace(rt.trace, ring))
		rt.Metrics = ms
		fmt.Printf("metrics: %s/metrics\n", ms.URL())
	}
	return rt, nil
}

// debugTrace serves the newest completed spans the ring holds,
// rendered like `tracetool report`. Flushing first makes every span
// ended so far visible; open spans (the run root, in-flight requests)
// show once they end, and their children surface as roots until then.
func debugTrace(t *obs.TraceFile, ring *obs.TraceRing) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		ferr := t.Flush()
		tr, err := traceview.ReadTrace(bytes.NewReader(ring.Snapshot()))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# newest %d completed spans (up to %d are kept)\n", len(tr.Spans), TraceRingSpans)
		if ferr != nil {
			fmt.Fprintf(w, "# trace export stopped: %v\n", ferr)
		}
		_ = traceview.WriteReport(w, tr)
	}
}

// Trace begins the run's root span (named after the tool), stamps the
// run ID on it, and wires it into any monitors already attached —
// monitors attached later are wired by AttachMonitor. The returned
// context carries the span; pass it to the pipeline stages. Close ends
// the span if the caller has not.
func (rt *Runtime) Trace(ctx context.Context) (context.Context, *obs.Span) {
	sctx, root := obs.StartSpan(ctx, rt.Tool)
	// Stamping the run ID gives every descendant span a wire identity:
	// outbound requests (the remote artifact tier) inject
	// X-Auditherm-Trace refs that resolve against this run's trace
	// file under tracetool merge.
	root.SetRunID(rt.RunID)
	rt.root = root
	for _, m := range rt.monitors {
		m.SetSpan(root)
	}
	return sctx, root
}

// SignalContext derives the run context that every CLI should pass to
// its pipeline stages: SIGINT or SIGTERM cancels it, so in-flight
// stages unwind through their context checks and the main returns into
// the normal cleanup path — Runtime.Close then flushes the trace file,
// the run manifest and the alert journal instead of the kill silently
// losing them. A second signal skips the graceful teardown and exits
// immediately (exit code 130, the shell convention for fatal SIGINT),
// for runs wedged in a non-cancelable section.
//
// The returned stop function detaches the handler and releases the
// goroutine; Close calls it too, so `defer stop()` is belt and braces.
func (rt *Runtime) SignalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	cctx, cancel := context.WithCancel(ctx)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
			cancel()
		})
	}
	exit := rt.exitFn
	if exit == nil {
		exit = os.Exit
	}
	go func() {
		select {
		case sig := <-ch:
			rt.Log.Warn("signal received; canceling run and flushing artifacts",
				slog.String("signal", sig.String()))
			cancel()
			select {
			case sig = <-ch:
				fmt.Fprintf(os.Stderr, "%s: second signal (%v); exiting without cleanup\n", rt.Tool, sig)
				exit(130)
			case <-done:
			}
		case <-done:
		}
	}()
	rt.signalStop = stop
	return cctx, stop
}

// MonitorEnabled reports whether -monitor was passed.
func (rt *Runtime) MonitorEnabled() bool { return rt.common.Monitor }

// CacheDir returns the effective -cache-dir value (possibly from
// $AUDITHERM_CACHE). Daemons that build engines per request read it
// instead of calling Engine once.
func (rt *Runtime) CacheDir() string { return rt.common.CacheDir }

// StoreSpec returns the effective -store tier spec (possibly from
// $AUDITHERM_STORE). Daemons that build their own backend read it
// instead of calling OpenStore.
func (rt *Runtime) StoreSpec() string { return rt.common.Store }

// ForceRequested reports whether -force was passed.
func (rt *Runtime) ForceRequested() bool { return rt.common.Force }

// Parallelism returns the effective -parallelism value.
func (rt *Runtime) Parallelism() int { return rt.common.Parallelism }

// Journal returns the alert journal, opening it on first use, or
// (nil, nil) when -alert-log is unset.
func (rt *Runtime) Journal() (*monitor.Journal, error) {
	if rt.common.AlertLog == "" {
		return nil, nil
	}
	if rt.journal == nil {
		j, err := monitor.OpenJournal(rt.common.AlertLog, rt.RunID)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rt.Tool, err)
		}
		rt.journal = j
	}
	return rt.journal, nil
}

// AttachMonitor wires a model-health monitor into the run's shared
// surface: the structured logger, the alert journal (when requested),
// a "monitor" readiness check on /readyz (when serving metrics), and
// the run's root span (so alarms carry its ID into the journal),
// whichever of AttachMonitor and Trace runs first.
func (rt *Runtime) AttachMonitor(m *monitor.Monitor) error {
	m.SetLogger(rt.Log)
	j, err := rt.Journal()
	if err != nil {
		return err
	}
	if j != nil {
		m.SetJournal(j)
	}
	if rt.Metrics != nil {
		rt.Metrics.AddReadiness("monitor", m.Readiness)
	}
	if rt.root != nil {
		m.SetSpan(rt.root)
	}
	rt.monitors = append(rt.monitors, m)
	return nil
}

// OpenStore builds the run's artifact backend from -store (tier spec)
// or, when the spec is empty, a plain local store at -cache-dir — the
// pre-tiering CLI behavior. Both empty means caching is off and the
// returned backend is nil with a nil error. The backend is memoized
// (every Engine in the run shares one tier stack, so the mem tier's
// hits accumulate across engines) and closed by Runtime.Close.
func (rt *Runtime) OpenStore() (artifact.Backend, error) {
	if rt.storeSet {
		return rt.store, rt.storeErr
	}
	rt.storeSet = true
	spec := rt.common.Store
	if spec == "" {
		if rt.common.CacheDir == "" {
			return nil, nil
		}
		st, err := artifact.Open(rt.common.CacheDir)
		if err != nil {
			rt.storeErr = fmt.Errorf("%s: %w", rt.Tool, err)
			return nil, rt.storeErr
		}
		rt.store = st
		return st, nil
	}
	b, err := artifact.OpenSpec(spec, artifact.SpecOptions{
		LocalRoot: rt.common.CacheDir,
		Token:     os.Getenv("AUDITHERM_STORE_TOKEN"),
	})
	if err != nil {
		rt.storeErr = fmt.Errorf("%s: -store %q: %w", rt.Tool, spec, err)
		return nil, rt.storeErr
	}
	rt.store = b
	return b, nil
}

// Engine builds the run's pipeline engine over the -store backend (or
// the plain -cache-dir local store; caching disabled when both are
// empty), honoring -force and -parallelism, and recording per-stage
// artifacts into b (which may be nil).
func (rt *Runtime) Engine(b *obs.ManifestBuilder) (*pipeline.Engine, error) {
	backend, err := rt.OpenStore()
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.New(pipeline.Options{
		Backend:  backend,
		Force:    rt.common.Force,
		Manifest: b,
		Workers:  rt.common.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rt.Tool, err)
	}
	if eng.Cached() {
		rt.Log.Info("pipeline cache enabled",
			slog.String("store", eng.Store().Name()), slog.Bool("force", rt.common.Force))
	}
	return eng, nil
}

// PrintCacheSummary writes the engine's per-stage cache scoreboard to
// stderr (so cached and uncached runs keep byte-identical stdout).
// Silent when caching is off or nothing resolved.
func (rt *Runtime) PrintCacheSummary(eng *pipeline.Engine) {
	if eng == nil || !eng.Cached() {
		return
	}
	results := eng.Results()
	if len(results) == 0 {
		return
	}
	hits := 0
	for _, r := range results {
		if r.CacheHit {
			hits++
		}
	}
	fmt.Fprintf(os.Stderr, "pipeline: %d/%d stages served warm from %s\n",
		hits, len(results), eng.Store().Name())
	for _, r := range results {
		status := "miss"
		switch {
		case r.CacheHit:
			status = "hit"
		case r.Key == "":
			status = "uncached"
		}
		fmt.Fprintf(os.Stderr, "  %-10s %-8s key=%s digest=%s bytes=%d wall=%v\n",
			r.Stage, status, r.Key.Short(), r.Digest.Short(), r.Bytes, r.Wall.Round(time.Millisecond))
	}
}

// NewManifest starts a manifest builder pre-seeded with the run's
// correlation fields (run ID, alert-journal path).
func (rt *Runtime) NewManifest() *obs.ManifestBuilder {
	b := obs.NewManifest(rt.Tool)
	b.SetRunID(rt.RunID)
	if rt.common.AlertLog != "" {
		b.SetAlertLog(rt.common.AlertLog)
	}
	if rt.traceOut != nil {
		b.SetTraceFile(rt.common.Trace)
	}
	rt.manifest = b
	return b
}

// WriteManifest writes the manifest to the -manifest path if one was
// given (and prints where), else does nothing.
func (rt *Runtime) WriteManifest(b *obs.ManifestBuilder) error {
	if rt.common.Manifest == "" {
		return nil
	}
	if err := b.WriteFile(rt.common.Manifest); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	if b == rt.manifest {
		rt.manifestDone = true
	}
	fmt.Printf("manifest written to %s\n", rt.common.Manifest)
	return nil
}

// ManifestRequested reports whether -manifest was passed (some tools
// only compute expensive summary metrics when it was).
func (rt *Runtime) ManifestRequested() bool { return rt.common.Manifest != "" }

// Close flushes and releases the run's resources: the root span, the
// run manifest (when requested and not yet written — the
// interrupted-run path, marked with a note), the trace file, the
// alert journal, and the metrics server (graceful drain). The root
// span's End is idempotent, so mains that already ended it lose
// nothing.
func (rt *Runtime) Close() {
	if rt.signalStop != nil {
		rt.signalStop()
		rt.signalStop = nil
	}
	if rt.root != nil {
		rt.root.End()
		rt.root = nil
	}
	// Manifest flush before the trace file closes (the manifest
	// references its path).
	if rt.manifest != nil && !rt.manifestDone && rt.common.Manifest != "" {
		rt.manifest.AddNote("manifest flushed by Runtime.Close: the run did not reach its normal WriteManifest (interrupted or failed)")
		if err := rt.manifest.WriteFile(rt.common.Manifest); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flushing manifest: %v\n", rt.Tool, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: manifest flushed to %s\n", rt.Tool, rt.common.Manifest)
		}
		rt.manifestDone = true
	}
	rt.manifest = nil
	if rt.trace != nil {
		if err := rt.trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flushing trace: %v\n", rt.Tool, err)
		}
		rt.trace = nil
	}
	if rt.traceOut != nil {
		if err := rt.traceOut.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing trace file: %v\n", rt.Tool, err)
		}
		rt.traceOut = nil
	}
	if rt.journal != nil {
		if err := rt.journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing alert journal: %v\n", rt.Tool, err)
		}
		rt.journal = nil
	}
	if rt.store != nil {
		if err := rt.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing artifact store: %v\n", rt.Tool, err)
		}
		rt.store = nil
	}
	if rt.Metrics != nil {
		_ = rt.Metrics.Close()
		rt.Metrics = nil
	}
}

// Fatal prints the error in the CLI's standard format and exits 1. It
// runs the Runtime cleanup first so journals flush and the metrics
// server drains. Safe to call with rt == nil (before Start succeeds).
func Fatal(rt *Runtime, tool string, err error) {
	if rt != nil {
		rt.Close()
		tool = rt.Tool
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
