package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"auditherm/internal/cliutil"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/serve"
	"auditherm/internal/traceview"
)

// TestSigtermDrainsWithoutLosingResponses is the daemon's end-to-end
// graceful-shutdown test: requests are in flight when the process
// receives SIGTERM; the daemon must flip /readyz to 503, answer every
// in-flight request, write its trace and manifest, and return from
// run() cleanly — zero lost responses.
func TestSigtermDrainsWithoutLosingResponses(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "serve.trace.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	var logBuf bytes.Buffer
	c := &cliutil.Common{
		MetricsAddr: "127.0.0.1:0",
		Trace:       tracePath,
		Manifest:    manifestPath,
		CacheDir:    filepath.Join(dir, "cache"),
		LogLevel:    "info",
		LogWriter:   &logBuf,
	}
	rt, err := c.Start("serve")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ready := make(chan *serve.Server, 1)
	runErr := make(chan error, 1)
	go func() {
		// Tiny dataset: the control endpoint used below never touches
		// it, but server startup hashes its config.
		runErr <- run(rt, 7, 2*time.Minute, "", 2, 16, time.Minute, ready)
	}()
	srv := <-ready
	base := rt.Metrics.URL()

	// Six distinct cold control runs against a 2-slot admission gate:
	// some compute, some queue — all are in flight when the signal
	// arrives.
	const n = 6
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/control?days=1&seed=" + strconv.Itoa(seed))
			if err != nil {
				results <- result{status: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, body}
		}(100 + i)
	}

	// Wait until the daemon has admitted all n past its drain gate,
	// then kill it. InFlight counts a request only once it is past the
	// gate, so signalling at the first admission would leave the rest
	// on the wire, and the drain correctly refuses those with 503. A
	// request that already answered counts too: it left the gate's
	// count before it reached results.
	deadline := time.After(30 * time.Second)
	for srv.InFlight()+len(results) < n {
		select {
		case <-deadline:
			t.Fatal("requests never went in flight")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Errorf("in-flight response lost to SIGTERM: status %d: %s", r.status, r.body)
			continue
		}
		var cs pipeline.ControlSummary
		if err := json.Unmarshal(r.body, &cs); err != nil {
			t.Errorf("response not a ControlSummary after drain: %v", err)
		}
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run did not return after SIGTERM")
	}

	// Post-drain: readyz says draining (listener still up until Close).
	if resp, err := http.Get(base + "/readyz"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz after drain: %d %s", resp.StatusCode, body)
		}
	}

	// The normal cleanup path flushes the artifacts.
	rt.Close()
	mf, err := obs.ReadManifestFile(manifestPath)
	if err != nil {
		t.Fatalf("daemon manifest unreadable: %v", err)
	}
	if mf.Tool != "serve" || mf.RunID != rt.RunID {
		t.Errorf("daemon manifest: tool=%q run_id=%q", mf.Tool, mf.RunID)
	}
	if mf.Metrics["requests_total"] < n {
		t.Errorf("manifest requests_total %v, want >= %d", mf.Metrics["requests_total"], n)
	}
	tr, err := traceview.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatalf("daemon trace unreadable: %v", err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "serve" {
		t.Fatalf("trace roots: %+v", tr.Roots)
	}
	served := 0
	for _, ch := range tr.Roots[0].Children {
		if strings.HasPrefix(ch.Name, "serve/control") {
			served++
		}
	}
	if served < n {
		t.Errorf("trace records %d control request spans, want >= %d", served, n)
	}
	if !strings.Contains(logBuf.String(), "signal received") {
		t.Error("signal not logged")
	}
}
