package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"auditherm/internal/cliutil"
	"auditherm/internal/obs"
)

// doTraced issues one GET with an X-Auditherm-Trace header and returns
// the response status and the daemon's run ID.
func doTraced(t *testing.T, url, traceRef string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceRef != "" {
		req.Header.Set(obs.TraceHeader, traceRef)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(obs.RunHeader)
}

// TestTraceLinkPropagation: a request carrying a well-formed
// X-Auditherm-Trace header links the request span and records the
// caller in the per-request manifest; a malformed header is counted
// and served unlinked — never an error; /v1/status surfaces both per
// endpoint.
func TestTraceLinkPropagation(t *testing.T) {
	runDir := t.TempDir()
	base, srv, _ := startServer(t, Config{RunDir: runDir})
	url := base + "/v1/sysid?order=1&mode=occupied&horizon=4h"

	// Linked request: caller ref lands in the manifest.
	st, runID := doTraced(t, url, "clientrun00000ab/42")
	if st != http.StatusOK || runID == "" {
		t.Fatalf("traced request: status %d, run %q", st, runID)
	}
	m, err := obs.ReadManifestFile(filepath.Join(runDir, runID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.CallerRun != "clientrun00000ab" || m.CallerSpan != 42 {
		t.Errorf("manifest caller = %s/%d, want clientrun00000ab/42", m.CallerRun, m.CallerSpan)
	}

	// Malformed header: the request still succeeds, unlinked, and the
	// manifest carries no caller.
	st, runID = doTraced(t, url, "no-span-part")
	if st != http.StatusOK || runID == "" {
		t.Fatalf("malformed-header request: status %d, run %q", st, runID)
	}
	m, err = obs.ReadManifestFile(filepath.Join(runDir, runID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.CallerRun != "" || m.CallerSpan != 0 {
		t.Errorf("malformed header produced caller %s/%d, want none", m.CallerRun, m.CallerSpan)
	}

	// Untraced request: no caller, no counters moved for it.
	if st, _ := doTraced(t, url, ""); st != http.StatusOK {
		t.Fatalf("untraced request: status %d", st)
	}

	// Per-server tallies are exact; this server saw one link and one
	// parse failure on sysid.
	ep := srv.epTrace["sysid"]
	if ep.links.Load() != 1 || ep.linkErrors.Load() != 1 {
		t.Errorf("sysid endpoint tallies links=%d errors=%d, want 1/1",
			ep.links.Load(), ep.linkErrors.Load())
	}

	// /v1/status echoes the tallies.
	_, body, _ := get(t, base+"/v1/status")
	var status struct {
		Trace struct {
			LinksTotal      int64 `json:"links_total"`
			LinkErrorsTotal int64 `json:"link_errors_total"`
			Endpoints       map[string]struct {
				Links      int64 `json:"links"`
				LinkErrors int64 `json:"link_errors"`
				SpanDrops  int64 `json:"span_drops"`
			} `json:"endpoints"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("status body: %v\n%s", err, body)
	}
	if status.Trace.LinksTotal < 1 || status.Trace.LinkErrorsTotal < 1 {
		t.Errorf("status trace counters %+v, want >=1 links and >=1 errors", status.Trace)
	}
	sysid, ok := status.Trace.Endpoints["sysid"]
	if !ok || sysid.Links != 1 || sysid.LinkErrors != 1 {
		t.Errorf("status sysid endpoint = %+v (present %v), want links=1 link_errors=1", sysid, ok)
	}
}

// TestDebugTraceFollowsNewestRequests runs the daemon as cmd/serve
// does — a cliutil runtime with -metrics-addr and a root span every
// request span is parented under — and serves more requests than
// /debug/trace keeps. The view must follow the newest requests rather
// than freeze on the first ones, and /v1/status must carry no
// root-span overflow tally, only the link tallies.
func TestDebugTraceFollowsNewestRequests(t *testing.T) {
	c := &cliutil.Common{MetricsAddr: "127.0.0.1:0", LogLevel: "error", LogWriter: io.Discard}
	rt, err := c.Start("serve")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, root := rt.Trace(context.Background())
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(Config{Dataset: testDataset(), CacheDir: sharedCacheDir}, log, root)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Mount(rt.Metrics)
	base := rt.Metrics.URL()

	// One miss, then response-cache hits: one request span each.
	var first, last string
	for i := 0; i < cliutil.TraceRingSpans+50; i++ {
		st, runID := doTraced(t, base+"/v1/control?days=1", "")
		if st != http.StatusOK || runID == "" {
			t.Fatalf("request %d: status %d, run %q", i, st, runID)
		}
		if i == 0 {
			first = runID
		}
		last = runID
	}

	st, body, _ := get(t, base+"/debug/trace")
	if st != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", st, body)
	}
	out := string(body)
	if want := fmt.Sprintf("spans: %d\n", cliutil.TraceRingSpans); !strings.Contains(out, want) {
		t.Errorf("/debug/trace does not hold exactly %d spans:\n%.400s", cliutil.TraceRingSpans, out)
	}
	if !strings.Contains(out, "run_id="+last) {
		t.Errorf("/debug/trace misses the newest request %s", last)
	}
	if strings.Contains(out, "run_id="+first) {
		t.Errorf("/debug/trace still shows the first request %s", first)
	}

	st, body, _ = get(t, base+"/v1/status")
	if st != http.StatusOK {
		t.Fatalf("/v1/status status %d: %s", st, body)
	}
	var status struct {
		Trace map[string]json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(status.Trace))
	for k := range status.Trace {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != "endpoints link_errors_total links_total" {
		t.Errorf("/v1/status trace section has keys %q, want only the link tallies", got)
	}
}
