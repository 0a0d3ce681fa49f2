package cliutil

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"auditherm/internal/monitor"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/traceview"
)

func TestRegisterOnInstallsSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var c Common
	RegisterOn(fs, &c)
	for _, name := range []string{
		"metrics-addr", "manifest", "parallelism", "monitor", "alert-log", "log-level",
		"cache-dir", "force", "trace",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{
		"-manifest", "m.json", "-monitor", "-alert-log", "a.jsonl", "-log-level", "warn",
	}); err != nil {
		t.Fatal(err)
	}
	if c.Manifest != "m.json" || !c.Monitor || c.AlertLog != "a.jsonl" || c.LogLevel != "warn" {
		t.Errorf("parsed Common = %+v", c)
	}
}

func TestStartRejectsBadLogLevel(t *testing.T) {
	c := &Common{LogLevel: "chatty"}
	if _, err := c.Start("x"); err == nil {
		t.Error("bad log level accepted")
	}
}

func TestRuntimeSharedSurface(t *testing.T) {
	dir := t.TempDir()
	alertPath := filepath.Join(dir, "alerts.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	var logBuf bytes.Buffer
	c := &Common{
		Manifest:  manifestPath,
		Monitor:   true,
		AlertLog:  alertPath,
		LogLevel:  "info",
		LogWriter: &logBuf,
	}
	rt, err := c.Start("tooltest")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if rt.RunID == "" {
		t.Error("empty run ID")
	}
	if !rt.MonitorEnabled() {
		t.Error("MonitorEnabled false with -monitor set")
	}
	if !rt.ManifestRequested() {
		t.Error("ManifestRequested false with -manifest set")
	}

	// Journal is lazy and cached.
	j1, err := rt.Journal()
	if err != nil || j1 == nil {
		t.Fatalf("Journal() = %v, %v", j1, err)
	}
	j2, _ := rt.Journal()
	if j1 != j2 {
		t.Error("Journal() not cached")
	}

	// AttachMonitor wires logger and journal; an alarm then lands in
	// both with this run's ID.
	m, err := monitor.New([]string{"s0"}, monitor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachMonitor(m); err != nil {
		t.Fatal(err)
	}

	// Manifest is pre-seeded with the correlation fields.
	b := rt.NewManifest()
	if err := rt.WriteManifest(b); err != nil {
		t.Fatal(err)
	}
	mf, err := obs.ReadManifestFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Tool != "tooltest" {
		t.Errorf("manifest tool %q", mf.Tool)
	}
	if mf.RunID != rt.RunID {
		t.Errorf("manifest run_id %q, want %q", mf.RunID, rt.RunID)
	}
	if mf.AlertLog != alertPath {
		t.Errorf("manifest alert_log %q, want %q", mf.AlertLog, alertPath)
	}

	// Logger carries the run ID and tool attrs.
	rt.Log.Info("hello")
	logs := logBuf.String()
	if !strings.Contains(logs, rt.RunID) || !strings.Contains(logs, `"tool":"tooltest"`) {
		t.Errorf("log record missing correlation attrs: %s", logs)
	}

	// Close is idempotent.
	rt.Close()
	rt.Close()
}

// TestTraceLifecycle: -trace installs the process exporter at Start,
// the manifest records the trace path, spans ended during the run land
// in the file, and Close ends the root, flushes, and uninstalls the
// exporter.
func TestTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	c := &Common{Manifest: manifestPath, Trace: tracePath, LogLevel: "error"}
	rt, err := c.Start("tracetest")
	if err != nil {
		t.Fatal(err)
	}
	if obs.TraceExporter() == nil {
		t.Fatal("Start did not install the trace exporter")
	}

	b := rt.NewManifest()
	ctx, root := rt.Trace(context.Background())
	if obs.SpanFromContext(ctx) != root {
		t.Error("Trace context does not carry the root span")
	}
	root.StartChild("work").End()
	if err := rt.WriteManifest(b); err != nil {
		t.Fatal(err)
	}
	rt.Close() // ends root, closes trace, uninstalls exporter
	if obs.TraceExporter() != nil {
		t.Error("Close left the trace exporter installed")
	}

	mf, err := obs.ReadManifestFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if mf.TraceFile != tracePath {
		t.Errorf("manifest trace_file %q, want %q", mf.TraceFile, tracePath)
	}

	tr, err := traceview.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.RunID != rt.RunID || tr.Meta.Tool != "tracetest" {
		t.Errorf("trace meta: %+v", tr.Meta)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "tracetest" ||
		len(tr.Roots[0].Children) != 1 || tr.Roots[0].Children[0].Name != "work" {
		t.Errorf("trace tree: %+v", tr.Roots)
	}
	// The root was ended by Close, not the tool: its line must still be
	// in the file (Close ends before closing the trace).
	if tr.Roots[0].EndNS < tr.Roots[0].StartNS {
		t.Errorf("root span not ended: %+v", tr.Roots[0])
	}
}

// TestSignalKillMidFlightFlushesArtifacts is the data-loss regression
// test for the signal-handling fix: before it, no CLI installed any
// SIGINT/SIGTERM handling, so a killed long run silently lost its
// trace file, run manifest and alert journal. Here a real pipeline
// stage is mid-flight when the process receives SIGINT; the run
// context must cancel, the stage must unwind with the context error,
// and after the normal Close path every artifact must be complete and
// parseable.
func TestSignalKillMidFlightFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	alertPath := filepath.Join(dir, "alerts.jsonl")
	var logBuf bytes.Buffer
	c := &Common{
		Manifest:  manifestPath,
		Trace:     tracePath,
		AlertLog:  alertPath,
		LogLevel:  "warn",
		LogWriter: &logBuf,
	}
	rt, err := c.Start("killtest")
	if err != nil {
		t.Fatal(err)
	}
	rt.exitFn = func(code int) { t.Fatalf("second-signal exit(%d) fired unexpectedly", code) }

	ctx, stop := rt.SignalContext(context.Background())
	defer stop()
	b := rt.NewManifest()
	sctx, _ := rt.Trace(ctx)

	// An alarm journaled before the kill must survive the interrupt.
	j, err := rt.Journal()
	if err != nil {
		t.Fatal(err)
	}
	j.Append(monitor.Alarm{Kind: "alarm", Sensor: "s0"})

	// A long-running stage: blocks until the run context dies, exactly
	// like a multi-hour simulate stage would at its next context check.
	eng, err := pipeline.New(pipeline.Options{Manifest: b})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	node := pipeline.Define(eng, "longhaul", pipeline.EvalCodec, nil, nil,
		func(ctx context.Context) (*pipeline.EvalArtifact, error) {
			close(entered)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	got := make(chan error, 1)
	go func() {
		_, err := node.Get(sctx)
		got <- err
	}()
	<-entered

	// Kill the run mid-flight.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stage unwound with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the run context")
	}
	if !strings.Contains(logBuf.String(), "signal received") {
		t.Errorf("signal not logged: %s", logBuf.String())
	}

	// The interrupted main's cleanup path: Close must flush everything.
	rt.Close()

	mf, err := obs.ReadManifestFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not parseable after kill: %v", err)
	}
	if mf.RunID != rt.RunID {
		t.Errorf("manifest run_id %q, want %q", mf.RunID, rt.RunID)
	}
	if len(mf.Notes) == 0 || !strings.Contains(mf.Notes[0], "Runtime.Close") {
		t.Errorf("manifest missing the interrupted-run note: %+v", mf.Notes)
	}

	tr, err := traceview.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatalf("trace not parseable after kill: %v", err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "killtest" {
		t.Errorf("trace tree after kill: %+v", tr.Roots)
	}
	if tr.Roots[0].EndNS < tr.Roots[0].StartNS {
		t.Errorf("root span never ended: %+v", tr.Roots[0])
	}

	entries, err := monitor.ReadJournal(alertPath)
	if err != nil {
		t.Fatalf("journal not parseable after kill: %v", err)
	}
	if len(entries) != 1 || entries[0].Sensor != "s0" || entries[0].RunID != rt.RunID {
		t.Errorf("journal entries after kill: %+v", entries)
	}
}

func TestWriteManifestNoopWithoutPath(t *testing.T) {
	c := &Common{LogLevel: "error"}
	rt, err := c.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.ManifestRequested() {
		t.Error("ManifestRequested true without -manifest")
	}
	if err := rt.WriteManifest(rt.NewManifest()); err != nil {
		t.Errorf("WriteManifest without path: %v", err)
	}
	if j, err := rt.Journal(); j != nil || err != nil {
		t.Errorf("Journal() without -alert-log = %v, %v", j, err)
	}
}

// TestDebugTraceShowsNewestSpans: with -metrics-addr, /debug/trace
// renders the newest TraceRingSpans completed spans through traceview.
// Writing more than the ring holds drops the oldest spans, and the
// still-open root appears once it ends.
func TestDebugTraceShowsNewestSpans(t *testing.T) {
	c := &Common{MetricsAddr: "127.0.0.1:0", LogLevel: "error"}
	rt, err := c.Start("ringtest")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, root := rt.Trace(context.Background())
	const extra = 10
	for i := 0; i < TraceRingSpans+extra; i++ {
		root.StartChild(fmt.Sprintf("work/%05d", i)).End()
	}
	name := func(i int) string { return fmt.Sprintf("work/%05d ", i) }

	body := getDebugTrace(t, rt)
	for _, want := range []string{
		fmt.Sprintf("# newest %d completed spans", TraceRingSpans),
		"tool ringtest",
		fmt.Sprintf("spans: %d\n", TraceRingSpans),
		name(extra), name(TraceRingSpans + extra - 1),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/trace missing %q", want)
		}
	}
	for _, gone := range []string{name(0), name(extra - 1), "\nringtest "} {
		if strings.Contains(body, gone) {
			t.Errorf("/debug/trace still shows %q", gone)
		}
	}

	root.End()
	body = getDebugTrace(t, rt)
	if !strings.Contains(body, "\nringtest ") || strings.Contains(body, name(extra)) {
		t.Errorf("after the root ended, /debug/trace should show it and drop %q:\n%.400s", name(extra), body)
	}
}

func getDebugTrace(t *testing.T, rt *Runtime) string {
	t.Helper()
	resp, err := http.Get(rt.Metrics.URL() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}
