package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: body not JSON: %v\n%s", url, err, body)
	}
	return m
}

// TestProbeEndpoints covers the liveness/readiness contract: /healthz is
// always 200 while the process serves; /readyz flips between 200 and 503
// with the registered checks and names the failing check.
func TestProbeEndpoints(t *testing.T) {
	r := NewRegistry()
	ms, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	h := getJSON(t, ms.URL()+"/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", h["status"])
	}
	if _, ok := h["uptime_s"].(float64); !ok {
		t.Errorf("healthz uptime_s missing: %v", h)
	}

	// Baseline: only the built-in registry check, which passes.
	rd := getJSON(t, ms.URL()+"/readyz", http.StatusOK)
	if rd["ready"] != true {
		t.Errorf("readyz ready = %v, want true", rd["ready"])
	}

	// A failing named check flips readiness to 503 and surfaces the
	// name + error.
	failing := true
	ms.AddReadiness("warmup", func() error {
		if failing {
			return fmt.Errorf("monitor warming up")
		}
		return nil
	})
	rd = getJSON(t, ms.URL()+"/readyz", http.StatusServiceUnavailable)
	if rd["ready"] != false {
		t.Errorf("readyz ready = %v, want false", rd["ready"])
	}
	checks, _ := rd["checks"].([]any)
	found := false
	for _, c := range checks {
		cm, _ := c.(map[string]any)
		if cm["name"] == "warmup" {
			found = true
			if cm["ready"] != false || cm["error"] != "monitor warming up" {
				t.Errorf("warmup check = %v", cm)
			}
		}
	}
	if !found {
		t.Errorf("warmup check missing from readyz: %v", rd)
	}

	// Check recovers -> ready again.
	failing = false
	rd = getJSON(t, ms.URL()+"/readyz", http.StatusOK)
	if rd["ready"] != true {
		t.Errorf("readyz after recovery = %v, want ready", rd["ready"])
	}
}

// TestReadyzDrain covers the shutdown side of readiness: BeginDrain
// flips /readyz to 503 (naming the draining state) while other
// endpoints — including an in-flight request on a mounted handler —
// keep serving to completion. Load balancers therefore stop routing
// before the listener closes instead of discovering the shutdown via
// connection errors.
func TestReadyzDrain(t *testing.T) {
	r := NewRegistry()
	ms, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// A slow mounted handler stands in for a long API request: it
	// blocks until released, so it is in flight across the drain flip.
	entered := make(chan struct{})
	release := make(chan struct{})
	ms.Handle("/v1/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		fmt.Fprintln(w, `{"done":true}`)
	}))

	rd := getJSON(t, ms.URL()+"/readyz", http.StatusOK)
	if rd["ready"] != true {
		t.Fatalf("readyz before drain = %v, want ready", rd["ready"])
	}

	type slowResult struct {
		status int
		body   string
		err    error
	}
	got := make(chan slowResult, 1)
	go func() {
		resp, err := http.Get(ms.URL() + "/v1/slow")
		if err != nil {
			got <- slowResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			got <- slowResult{err: err}
			return
		}
		got <- slowResult{status: resp.StatusCode, body: string(body)}
	}()
	<-entered

	ms.BeginDrain()
	if !ms.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	rd = getJSON(t, ms.URL()+"/readyz", http.StatusServiceUnavailable)
	if rd["ready"] != false || rd["draining"] != true {
		t.Errorf("readyz during drain = %v, want ready=false draining=true", rd)
	}
	// Liveness is unaffected: the process is still alive and serving.
	getJSON(t, ms.URL()+"/healthz", http.StatusOK)

	// The in-flight request completes normally despite the drain.
	close(release)
	res := <-got
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK || !strings.Contains(res.body, `"done":true`) {
		t.Errorf("in-flight request: status %d body %q", res.status, res.body)
	}
}
