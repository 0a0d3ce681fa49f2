package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/traceview"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/repro_full.txt and testdata/repro_full_pins.json from the current code")

func testRuntime(t *testing.T, c *cliutil.Common) *cliutil.Runtime {
	t.Helper()
	if c == nil {
		c = &cliutil.Common{}
	}
	if c.LogLevel == "" {
		c.LogLevel = "error"
	}
	rt, err := c.Start("repro")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// smallConfig is a gap-light two-week trace: large enough for every
// experiment to have usable train and validation days, small enough
// that the whole suite runs in test time.
func smallConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	return cfg
}

func readManifest(t *testing.T, path string) *obs.RunManifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.RunManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parsing manifest: %v", err)
	}
	return &m
}

// TestColdWarmByteIdentical is the end-to-end cache contract: a warm
// rerun of the full (-short) suite reproduces the cold run's stdout
// byte for byte, serves every stage from the artifact store, and
// restores the same manifest metrics.
func TestColdWarmByteIdentical(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	cfg := smallConfig()

	coldManifest := filepath.Join(dir, "cold.json")
	rt := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: coldManifest})
	var cold bytes.Buffer
	if err := run(rt, &cold, "", true, cfg, 2); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	warmManifest := filepath.Join(dir, "warm.json")
	rt2 := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: warmManifest})
	var warm bytes.Buffer
	if err := run(rt2, &warm, "", true, cfg, 2); err != nil {
		t.Fatalf("warm run: %v", err)
	}

	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm stdout differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
	cm, wm := readManifest(t, coldManifest), readManifest(t, warmManifest)
	if len(wm.Artifacts) == 0 {
		t.Fatal("warm manifest has no artifact records")
	}
	for stage, st := range wm.Artifacts {
		if !st.CacheHit {
			t.Errorf("warm run recomputed stage %s", stage)
		}
		if cs, ok := cm.Artifacts[stage]; !ok {
			t.Errorf("stage %s missing from cold manifest", stage)
		} else if cs.CacheHit {
			t.Errorf("cold run claims a cache hit for stage %s", stage)
		} else if cs.Digest != st.Digest {
			t.Errorf("stage %s digest changed across cold/warm: %s vs %s", stage, cs.Digest, st.Digest)
		}
	}
	for k, v := range cm.Metrics {
		if wv, ok := wm.Metrics[k]; !ok || wv != v {
			t.Errorf("metric %s: cold %v, warm %v (present %v)", k, v, wm.Metrics[k], ok)
		}
	}
}

// TestControlDaysInvalidatesExactlyControl checks invalidation
// precision: changing the control study's day count recomputes that
// stage alone while the shared dataset stage stays warm.
func TestControlDaysInvalidatesExactlyControl(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	cfg := smallConfig()

	rt := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: filepath.Join(dir, "a.json")})
	var outA bytes.Buffer
	if err := run(rt, &outA, "control", false, cfg, 2); err != nil {
		t.Fatalf("first control run: %v", err)
	}

	changed := filepath.Join(dir, "b.json")
	rt2 := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: changed})
	var outB bytes.Buffer
	if err := run(rt2, &outB, "control", false, cfg, 3); err != nil {
		t.Fatalf("changed control run: %v", err)
	}
	m := readManifest(t, changed)
	if st, ok := m.Artifacts["simulate"]; !ok || !st.CacheHit {
		t.Errorf("simulate stage should stay warm across a control-days change (hit=%v, found=%v)", st.CacheHit, ok)
	}
	if st, ok := m.Artifacts["exp-control"]; !ok || st.CacheHit {
		t.Errorf("exp-control should recompute when days change (hit=%v, found=%v)", st.CacheHit, ok)
	}

	// Same knobs again: no under-invalidation masquerading as a hit —
	// the recomputed artifact now serves warm and byte-identical.
	rt3 := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: filepath.Join(dir, "c.json")})
	var outC bytes.Buffer
	if err := run(rt3, &outC, "control", false, cfg, 3); err != nil {
		t.Fatalf("repeat control run: %v", err)
	}
	if !bytes.Equal(outB.Bytes(), outC.Bytes()) {
		t.Error("repeat of the changed run is not byte-identical")
	}
	m3 := readManifest(t, filepath.Join(dir, "c.json"))
	if st := m3.Artifacts["exp-control"]; !st.CacheHit {
		t.Error("repeat of the changed run should hit exp-control")
	}
}

// TestPartialProgressResumes covers kill/resume at the CLI level: a
// run that only produced the dataset and one figure leaves artifacts
// a later, larger run picks up instead of regenerating.
func TestPartialProgressResumes(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	cfg := smallConfig()

	rt := testRuntime(t, &cliutil.Common{CacheDir: cache})
	var first bytes.Buffer
	if err := run(rt, &first, "fig2", false, cfg, 2); err != nil {
		t.Fatalf("partial run: %v", err)
	}

	resumed := filepath.Join(dir, "resume.json")
	rt2 := testRuntime(t, &cliutil.Common{CacheDir: cache, Manifest: resumed})
	var second bytes.Buffer
	if err := run(rt2, &second, "fig6", false, cfg, 2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	m := readManifest(t, resumed)
	for _, stage := range []string{"simulate", "exp-summary"} {
		if st, ok := m.Artifacts[stage]; !ok || !st.CacheHit {
			t.Errorf("resumed run should reuse %s (hit=%v, found=%v)", stage, st.CacheHit, ok)
		}
	}
	if st := m.Artifacts["exp-fig6"]; st.CacheHit {
		t.Error("exp-fig6 cannot hit on its first execution")
	}
}

// TestForceRecomputesButMatches: -force bypasses the cache yet, the
// pipeline being deterministic, reproduces identical bytes.
func TestForceRecomputesButMatches(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	cfg := smallConfig()

	rt := testRuntime(t, &cliutil.Common{CacheDir: cache})
	var first bytes.Buffer
	if err := run(rt, &first, "fig2", false, cfg, 2); err != nil {
		t.Fatal(err)
	}
	forced := filepath.Join(dir, "forced.json")
	rt2 := testRuntime(t, &cliutil.Common{CacheDir: cache, Force: true, Manifest: forced})
	var second bytes.Buffer
	if err := run(rt2, &second, "fig2", false, cfg, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("forced recompute is not byte-identical to the original")
	}
	m := readManifest(t, forced)
	for stage, st := range m.Artifacts {
		if st.CacheHit {
			t.Errorf("forced run reported a cache hit for %s", stage)
		}
	}
}

// TestTraceRoundTrip is the tracing acceptance path: a -trace run
// writes a JSONL trace whose pipeline spans carry cache hit/miss
// attributes, the manifest references the trace file (plus the
// environment fields tracetool diff compares), and both tracetool
// renderers — the text report and the Chrome converter — consume it.
func TestTraceRoundTrip(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	cfg := smallConfig()

	// Cold fig2 run warms simulate + exp-summary in the cache.
	rt := testRuntime(t, &cliutil.Common{CacheDir: cache})
	var cold bytes.Buffer
	if err := run(rt, &cold, "fig2", false, cfg, 2); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	// Traced fig6 run: cache hits (simulate, exp-summary) plus a miss
	// (exp-fig6) land in one trace.
	tracePath := filepath.Join(dir, "run.trace.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	rt2 := testRuntime(t, &cliutil.Common{
		CacheDir: cache, Manifest: manifestPath, Trace: tracePath,
	})
	var out bytes.Buffer
	if err := run(rt2, &out, "fig6", false, cfg, 2); err != nil {
		t.Fatal(err)
	}
	rt2.Close() // flush and close the trace file

	m := readManifest(t, manifestPath)
	if m.TraceFile != tracePath {
		t.Errorf("manifest trace_file %q, want %q", m.TraceFile, tracePath)
	}
	if m.GoVersion == "" || m.NumCPU == 0 || m.GoMaxProcs == 0 {
		t.Errorf("manifest missing environment fields: go=%q cpus=%d maxprocs=%d",
			m.GoVersion, m.NumCPU, m.GoMaxProcs)
	}

	tr, err := traceview.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.RunID != rt2.RunID || tr.Meta.Tool != "repro" {
		t.Errorf("trace meta run %q tool %q, want %q/repro", tr.Meta.RunID, tr.Meta.Tool, rt2.RunID)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "repro" {
		t.Fatalf("trace roots: %+v", tr.Roots)
	}
	hit := map[string]any{}
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "pipeline/") {
			hit[sp.Name] = sp.Attrs["cache_hit"]
		}
	}
	if hit["pipeline/simulate"] != true {
		t.Errorf("simulate span cache_hit = %v, want true (attrs by stage: %v)", hit["pipeline/simulate"], hit)
	}
	if hit["pipeline/exp-fig6"] != false {
		t.Errorf("exp-fig6 span cache_hit = %v, want false", hit["pipeline/exp-fig6"])
	}

	var report strings.Builder
	if err := traceview.WriteReport(&report, tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipeline/simulate", "cache_hit=true", "# critical path"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
	var chrome strings.Builder
	if err := traceview.WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(chrome.String())) {
		t.Error("chrome conversion is not valid JSON")
	}
}

func TestUnknownExperiment(t *testing.T) {
	rt := testRuntime(t, nil)
	var out bytes.Buffer
	if err := run(rt, &out, "nope", false, smallConfig(), 2); err == nil {
		t.Fatal("expected an error for an unknown experiment id")
	}
}

func TestBadControlDays(t *testing.T) {
	rt := testRuntime(t, nil)
	var out bytes.Buffer
	if err := run(rt, &out, "control", false, smallConfig(), 0); err == nil {
		t.Fatal("expected an error for a non-positive control-days")
	}
}

// reproPins is what a full run pins beyond its stdout, which prints
// most numbers to two decimals: every headline metric at full float64
// precision, and every stage's artifact digest.
type reproPins struct {
	Metrics map[string]float64 `json:"metrics"`
	Stages  map[string]string  `json:"stages"`
}

// TestFullReproGolden pins the paper's numbers: a full repro run on the
// default dataset, from an empty cache, prints exactly the stdout in
// testdata/repro_full.txt, and its manifest's metrics and stage digests
// match testdata/repro_full_pins.json. A change that has to move a
// paper number re-pins both files with -update-golden and says which
// section moved and why.
func TestFullReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full repro run")
	}
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	rt := testRuntime(t, &cliutil.Common{CacheDir: t.TempDir(), Manifest: manifest})
	var out bytes.Buffer
	if err := run(rt, &out, "", false, dataset.DefaultConfig(), 7); err != nil {
		t.Fatalf("full run: %v", err)
	}
	m := readManifest(t, manifest)
	got := reproPins{Metrics: m.Metrics, Stages: map[string]string{}}
	for stage, st := range m.Artifacts {
		got.Stages[stage] = st.Digest
	}
	outPath := filepath.Join("testdata", "repro_full.txt")
	pinsPath := filepath.Join("testdata", "repro_full_pins.json")
	if *updateGolden {
		pins, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(pins, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) and %s", outPath, out.Len(), pinsPath)
		return
	}
	want, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("reading repro golden (regenerate with -update-golden): %v", err)
	}
	if moved := sectionDiff(string(want), out.String()); len(moved) > 0 {
		t.Errorf("%d sections differ from %s:\n%s", len(moved), outPath, strings.Join(moved, "\n"))
	}
	raw, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var wantPins reproPins
	if err := json.Unmarshal(raw, &wantPins); err != nil {
		t.Fatal(err)
	}
	if moved := append(mapDiff("metric", wantPins.Metrics, got.Metrics),
		mapDiff("stage", wantPins.Stages, got.Stages)...); len(moved) > 0 {
		t.Errorf("%d pins differ from %s:\n%s", len(moved), pinsPath, strings.Join(moved, "\n"))
	}
}

// mapDiff lists, one line each in key order, every key of want or got
// whose value differs or that only one side has.
func mapDiff[V comparable](kind string, want, got map[string]V) []string {
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var moved []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		if inWant != inGot || w != g {
			moved = append(moved, fmt.Sprintf("  %s %s: got %v (%v), want %v (%v)", kind, k, g, inGot, w, inWant))
		}
	}
	return moved
}

// reproSections splits repro's stdout at its "== id ==" headers. The
// dataset summary ahead of the first header is the "summary" section.
func reproSections(out string) (names []string, body map[string]string) {
	body = map[string]string{}
	name := "summary"
	names = append(names, name)
	for _, line := range strings.SplitAfter(out, "\n") {
		if h := strings.TrimSpace(line); strings.HasPrefix(h, "== ") && strings.HasSuffix(h, " ==") {
			name = strings.TrimSuffix(strings.TrimPrefix(h, "== "), " ==")
			names = append(names, name)
		}
		body[name] += line
	}
	return names, body
}

// sectionDiff names every section of want that got drops or changes,
// and every section got adds, with the first line that differs.
func sectionDiff(want, got string) []string {
	wantNames, wantBody := reproSections(want)
	gotNames, gotBody := reproSections(got)
	var moved []string
	for _, name := range wantNames {
		g, ok := gotBody[name]
		switch {
		case !ok:
			moved = append(moved, fmt.Sprintf("== %s == missing", name))
		case g != wantBody[name]:
			wl, gl := strings.Split(wantBody[name], "\n"), strings.Split(g, "\n")
			i := 0
			for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
				i++
			}
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end>"
			}
			moved = append(moved, fmt.Sprintf("== %s == line %d:\n  got  %q\n  want %q", name, i+1, line(gl), line(wl)))
		}
	}
	for _, name := range gotNames {
		if _, ok := wantBody[name]; !ok {
			moved = append(moved, fmt.Sprintf("== %s == not in the golden", name))
		}
	}
	return moved
}
