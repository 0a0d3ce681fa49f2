package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/traceview"
)

// sharedCacheDir is one artifact store for the whole test package, so
// only the first test pays for the cold simulate stage.
var sharedCacheDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-test-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sharedCacheDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testDataset mirrors the repro/bench small config: two weeks at a
// 2-minute step, failure-free so every stage has usable windows.
func testDataset() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	return cfg
}

// startServer boots a metrics listener with the API mounted and
// returns the base URL, the server and the metrics server.
func startServer(t *testing.T, cfg Config) (string, *Server, *obs.MetricsServer) {
	t.Helper()
	if cfg.Dataset.Days == 0 {
		cfg.Dataset = testDataset()
	}
	if cfg.CacheDir == "" {
		cfg.CacheDir = sharedCacheDir
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(cfg, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.ServeMetrics("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ms.Close() })
	srv.Mount(ms)
	return ms.URL(), srv, ms
}

// get issues one request and returns status, body and the headers the
// daemon stamps.
func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestWarmRequestByteIdentical: the second identical request must be a
// response-cache hit replaying the cold run's bytes exactly, under a
// fresh run ID.
func TestWarmRequestByteIdentical(t *testing.T) {
	base, _, _ := startServer(t, Config{})

	url := base + "/v1/sysid?order=1&mode=occupied&horizon=4h"
	st1, cold, h1 := get(t, url)
	if st1 != http.StatusOK {
		t.Fatalf("cold status %d: %s", st1, cold)
	}
	if c := h1.Get("X-Auditherm-Cache"); c != "miss" {
		t.Errorf("cold cache header %q, want miss", c)
	}
	var ev pipeline.EvalArtifact
	if err := json.Unmarshal(cold, &ev); err != nil {
		t.Fatalf("cold body not an EvalArtifact: %v", err)
	}
	if len(ev.Sensors) == 0 || ev.Windows == 0 {
		t.Errorf("empty evaluation: %+v", ev)
	}

	// The same request spelled with explicit defaults must share the
	// canonical key.
	st2, warm, h2 := get(t, url+"&on=6&off=21&max_missing=0.5")
	if st2 != http.StatusOK {
		t.Fatalf("warm status %d: %s", st2, warm)
	}
	if c := h2.Get("X-Auditherm-Cache"); c != "hit" {
		t.Errorf("warm cache header %q, want hit", c)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response bytes differ from cold")
	}
	r1, r2 := h1.Get("X-Auditherm-Run"), h2.Get("X-Auditherm-Run")
	if r1 == "" || r2 == "" || r1 == r2 {
		t.Errorf("run IDs not distinct per request: %q vs %q", r1, r2)
	}
}

// TestConcurrentMixedRequests: a concurrent mix of endpoints must all
// succeed with distinct per-request run IDs, one manifest per request
// in the run directory, and request spans (carrying those run IDs)
// joined to the daemon's trace.
func TestConcurrentMixedRequests(t *testing.T) {
	// A run dir that does not exist yet: New must create it, or every
	// per-request manifest write fails (regression: the daemon used to
	// assume the directory existed).
	runDir := filepath.Join(t.TempDir(), "runs")
	tracePath := filepath.Join(t.TempDir(), "serve.trace.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf := obs.NewTraceWriter(f, "run-test", "serve")
	obs.SetTraceExporter(tf)
	defer obs.SetTraceExporter(nil)
	_, root := obs.StartSpan(context.Background(), "serve")

	cfg := Config{Dataset: testDataset(), CacheDir: sharedCacheDir, RunDir: runDir}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(cfg, log, root)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.ServeMetrics("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	srv.Mount(ms)
	base := ms.URL()

	paths := []string{
		"/v1/sysid?order=1",
		"/v1/sysid?order=2",
		"/v1/cluster?metric=euclidean&k=2",
		"/v1/cluster?metric=correlation&k=2",
		"/v1/select?metric=correlation&k=2&seeds=3",
		"/v1/control?days=1",
	}
	const rounds = 3
	type reply struct {
		path   string
		status int
		runID  string
		body   []byte
	}
	replies := make(chan reply, rounds*len(paths))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(base + p)
				if err != nil {
					replies <- reply{path: p, status: -1}
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				replies <- reply{p, resp.StatusCode, resp.Header.Get("X-Auditherm-Run"), body}
			}(p)
		}
	}
	wg.Wait()
	close(replies)

	runIDs := map[string]string{} // runID -> path
	byPath := map[string][][]byte{}
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.path, r.status, r.body)
		}
		if r.runID == "" {
			t.Fatalf("%s: missing X-Auditherm-Run", r.path)
		}
		if prev, dup := runIDs[r.runID]; dup {
			t.Fatalf("run ID %s reused across %s and %s", r.runID, prev, r.path)
		}
		runIDs[r.runID] = r.path
		byPath[r.path] = append(byPath[r.path], r.body)
	}
	// Same path -> byte-identical responses, cold or warm.
	for p, bodies := range byPath {
		for _, b := range bodies[1:] {
			if !bytes.Equal(bodies[0], b) {
				t.Errorf("%s: responses not byte-identical across repeats", p)
			}
		}
	}

	// One manifest per request, named by its run ID, carrying it.
	entries, err := os.ReadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != rounds*len(paths) {
		t.Errorf("run dir holds %d manifests, want %d", len(entries), rounds*len(paths))
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".json")
		if _, ok := runIDs[id]; !ok {
			t.Errorf("manifest %s does not match any response run ID", e.Name())
			continue
		}
		mf, err := obs.ReadManifestFile(filepath.Join(runDir, e.Name()))
		if err != nil {
			t.Errorf("manifest %s unreadable: %v", e.Name(), err)
			continue
		}
		if mf.RunID != id {
			t.Errorf("manifest %s carries run_id %q", e.Name(), mf.RunID)
		}
		if mf.Config["endpoint"] == "" {
			t.Errorf("manifest %s missing endpoint config", e.Name())
		}
	}

	// Request spans joined the daemon trace with their run IDs.
	root.End()
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	obs.SetTraceExporter(nil)
	tr, err := traceview.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "serve" {
		t.Fatalf("trace roots: %+v", tr.Roots)
	}
	seen := map[string]bool{}
	for _, c := range tr.Roots[0].Children {
		if !strings.HasPrefix(c.Name, "serve/") {
			continue
		}
		if id, ok := c.Attrs["run_id"].(string); ok {
			seen[id] = true
		}
	}
	for id, path := range runIDs {
		if !seen[id] {
			t.Errorf("trace missing request span for run %s (%s)", id, path)
		}
	}
}

// TestDrainRejectsNewFinishesInFlight: once draining, new requests get
// 503 while the requests already computing run to completion — the
// zero-loss half of graceful shutdown, with six requests held
// deterministically in flight via the compute hook.
func TestDrainRejectsNewFinishesInFlight(t *testing.T) {
	const inFlight = 6
	base, srv, ms := startServer(t, Config{MaxInFlight: 8})
	var entered sync.WaitGroup
	entered.Add(inFlight)
	release := make(chan struct{})
	var hooked atomic.Int64
	srv.computeHook = func(string) {
		if hooked.Add(1) <= inFlight {
			entered.Done()
			<-release
		}
	}

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, inFlight)
	for i := 0; i < inFlight; i++ {
		go func(seed int) {
			// A novel key (unused seed) so the request misses and computes.
			resp, err := http.Get(fmt.Sprintf("%s/v1/control?days=1&seed=%d", base, seed))
			if err != nil {
				results <- result{status: -1, body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				body = []byte(err.Error())
			}
			results <- result{resp.StatusCode, body}
		}(77 + i)
	}
	entered.Wait()
	if n := srv.InFlight(); n != inFlight {
		t.Errorf("%d requests in flight at the drain, want %d", n, inFlight)
	}

	ms.BeginDrain()
	srv.BeginDrain()

	// New request: rejected, body names the drain.
	st, body, _ := get(t, base+"/v1/cluster?metric=correlation")
	if st != http.StatusServiceUnavailable {
		t.Errorf("draining request status %d, want 503 (%s)", st, body)
	}

	// /readyz flipped too (the metrics server's own drain flag).
	st, body, _ = get(t, base+"/readyz")
	if st != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining":true`) {
		t.Errorf("readyz during drain: %d %s", st, body)
	}

	// Every in-flight request completes successfully.
	close(release)
	for i := 0; i < inFlight; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("in-flight request lost to drain: %d %s", r.status, r.body)
			continue
		}
		var cs pipeline.ControlSummary
		if err := json.Unmarshal(r.body, &cs); err != nil {
			t.Errorf("in-flight body not a ControlSummary: %v", err)
		}
	}
	if err := srv.Wait(10 * time.Second); err != nil {
		t.Errorf("Wait after drain: %v", err)
	}
}

// TestSteadyLoadP99AndHitRate warms an 8-endpoint key space, then
// replays it 1,200 times from 16 concurrent clients: the p99 latency
// stays under 500 ms and at least 90% of the requests are
// response-cache hits.
func TestSteadyLoadP99AndHitRate(t *testing.T) {
	const (
		requests    = 1200
		concurrency = 16
		maxP99      = 500 * time.Millisecond
		minHitRate  = 0.90
	)
	base, _, _ := startServer(t, Config{MaxInFlight: 8, ResponseCache: 64})
	endpoints := []string{
		"/v1/sysid?order=1",
		"/v1/sysid?order=2",
		"/v1/cluster?metric=euclidean&k=2",
		"/v1/cluster?metric=correlation&k=2",
		"/v1/select?metric=correlation&k=2&seeds=3",
		"/v1/report?id=fig2",
		"/v1/control?days=1&seed=1",
		"/v1/control?days=1&seed=2",
	}
	for _, ep := range endpoints {
		if st, body, _ := get(t, base+ep); st != http.StatusOK {
			t.Fatalf("warmup %s: status %d (%s)", ep, st, body)
		}
	}

	latencies := make([]time.Duration, requests)
	var next, hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				t0 := time.Now()
				resp, err := http.Get(base + endpoints[i%len(endpoints)])
				if err != nil {
					t.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[i] = time.Since(t0)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d, err %v", i, resp.StatusCode, err)
					return
				}
				if resp.Header.Get("X-Auditherm-Cache") == "hit" {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	slices.Sort(latencies)
	p99 := latencies[(99*(requests-1)+50)/100]
	hitRate := float64(hits.Load()) / requests
	t.Logf("p50 %v, p99 %v, hit rate %.3f", latencies[requests/2], p99, hitRate)
	if p99 >= maxP99 {
		t.Errorf("steady-state p99 %v, want under %v", p99, maxP99)
	}
	if hitRate < minHitRate {
		t.Errorf("warm hit rate %.3f, want at least %.2f", hitRate, minHitRate)
	}
}

// TestCoalescedIdenticalRequests: concurrent identical cold requests
// share one computation; followers answer warm with identical bytes.
func TestCoalescedIdenticalRequests(t *testing.T) {
	base, srv, _ := startServer(t, Config{})
	gate := make(chan struct{})
	var hookOnce sync.Once
	srv.computeHook = func(string) {
		hookOnce.Do(func() { <-gate })
	}

	const n = 4
	type result struct {
		status int
		body   []byte
		cache  string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(base + "/v1/control?days=1&seed=88")
			if err != nil {
				results <- result{status: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, body, resp.Header.Get("X-Auditherm-Cache")}
		}()
	}
	// Let all four requests stack up on the flight group, then release.
	deadline := time.After(10 * time.Second)
	for srv.InFlight() < n {
		select {
		case <-deadline:
			t.Fatalf("only %d requests in flight", srv.InFlight())
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(gate)

	var first []byte
	misses := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		if r.cache == "miss" {
			misses++
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("coalesced responses differ")
		}
	}
	if misses != 1 {
		t.Errorf("%d leaders computed, want exactly 1", misses)
	}
}

// TestBadParameters: malformed requests answer 400 with a JSON error
// and never reach the pipeline.
func TestBadParameters(t *testing.T) {
	base, _, _ := startServer(t, Config{})
	for _, p := range []string{
		"/v1/sysid?order=9",
		"/v1/sysid?mode=weekend",
		"/v1/cluster?metric=cosine",
		"/v1/cluster?k=100",
		"/v1/cluster?k=-3",
		"/v1/select?seeds=0",
		"/v1/select?k=100",
		"/v1/control?controller=bangbang",
		"/v1/control?days=0",
		"/v1/report",
		"/v1/report?id=fig99",
	} {
		st, body, _ := get(t, base+p)
		if st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", p, st, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", p, body)
		}
	}
}

// TestExperimentsIndexAndReport: the catalog endpoint lists the ids
// and a report request resolves one, seeding the cross-request Env
// cache for the next.
func TestExperimentsIndexAndReport(t *testing.T) {
	base, srv, _ := startServer(t, Config{})

	st, body, _ := get(t, base+"/v1/experiments")
	if st != http.StatusOK {
		t.Fatalf("experiments status %d: %s", st, body)
	}
	var idx struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Experiments) != 14 || idx.Experiments[0] != "table1" {
		t.Errorf("catalog ids: %v", idx.Experiments)
	}

	st, body, h := get(t, base+"/v1/report?id=fig2")
	if st != http.StatusOK {
		t.Fatalf("report status %d: %s", st, body)
	}
	var rep struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig2" || !strings.Contains(rep.Text, "Figure 2") {
		t.Errorf("report payload: id=%q text=%q...", rep.ID, rep.Text[:min(80, len(rep.Text))])
	}
	if h.Get("X-Auditherm-Run") == "" {
		t.Error("report response missing run ID header")
	}
	// A cold report derives the Env; the server retains it for later
	// report requests (unless everything came warm from the store, in
	// which case the derivation was never needed — both are fine, but
	// a second distinct report must still succeed).
	st, body, _ = get(t, base+"/v1/report?id=fig3")
	if st != http.StatusOK {
		t.Fatalf("second report status %d: %s", st, body)
	}
	_ = srv
}
