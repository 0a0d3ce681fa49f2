package traceview

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticTrace is a small run: a root with two sequential pipeline
// stages (one hit, one miss with an error-free compute), plus two
// overlapping par workers under the miss (the second one errored),
// plus a monitor event.
const syntheticTrace = `{"type":"meta","run_id":"run-7","tool":"repro","go_version":"go1.24.0","gomaxprocs":4,"num_cpu":4,"hostname":"bench-host","start_unix_ns":1000}
{"type":"span","id":3,"parent":2,"name":"par/worker","start_ns":2000,"end_ns":5000,"attrs":{"worker":0},"counts":{"tasks":7}}
{"type":"span","id":4,"parent":2,"name":"par/worker","start_ns":2100,"end_ns":4800,"error":"task 3: sensor s07 offline","attrs":{"worker":1},"counts":{"tasks":5}}
{"type":"span","id":2,"parent":1,"name":"pipeline/simulate","start_ns":1500,"end_ns":6000,"attrs":{"cache_hit":false,"cache_key":"abcd1234","artifact_bytes":2048},"counts":{"cache_hit":0},"events":[{"t_ns":3000,"name":"monitor/alarm","attrs":{"sensor":"s07"}}]}
{"type":"span","id":5,"parent":1,"name":"pipeline/dataset","start_ns":6100,"end_ns":6500,"attrs":{"cache_hit":true,"cache_key":"ff00aa11","artifact_digest":"deadbeef"},"counts":{"cache_hit":1}}
{"type":"span","id":1,"parent":0,"name":"repro","start_ns":1000,"end_ns":7000}
`

func writeTemp(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTrace(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(syntheticTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.RunID != "run-7" || tr.Meta.Tool != "repro" || tr.Meta.NumCPU != 4 {
		t.Errorf("meta: %+v", tr.Meta)
	}
	if len(tr.Spans) != 5 || len(tr.Roots) != 1 {
		t.Fatalf("spans %d roots %d", len(tr.Spans), len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.Name != "repro" || len(root.Children) != 2 {
		t.Fatalf("root: %s with %d children", root.Name, len(root.Children))
	}
	// Children sorted by start time.
	if root.Children[0].Name != "pipeline/simulate" || root.Children[1].Name != "pipeline/dataset" {
		t.Errorf("child order: %s, %s", root.Children[0].Name, root.Children[1].Name)
	}
	sim := tr.Find(2)
	if sim == nil || len(sim.Children) != 2 {
		t.Fatalf("simulate span: %+v", sim)
	}
	if sim.Attrs["cache_hit"] != false || sim.Attrs["cache_key"] != "abcd1234" {
		t.Errorf("simulate attrs: %v", sim.Attrs)
	}
	if len(sim.Events) != 1 || sim.Events[0].Name != "monitor/alarm" {
		t.Errorf("simulate events: %v", sim.Events)
	}
}

func TestWriteReport(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(syntheticTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"run run-7", "tool repro",
		"# span tree", "repro", "pipeline/simulate", "par/worker",
		"cache_hit=false", "cache_hit=true", "worker=0",
		"monitor/alarm", "sensor=s07",
		"!error: task 3: sensor s07 offline",
		"# by name", "1 errored", "1 cache hits",
		"# critical path",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Critical path: repro -> simulate (its longest child) -> worker 0.
	cp := out[strings.Index(out, "# critical path"):]
	for _, want := range []string{"repro", "pipeline/simulate", "par/worker"} {
		idx := strings.Index(cp, want)
		if idx < 0 {
			t.Fatalf("critical path missing %q:\n%s", want, cp)
		}
		cp = cp[idx:]
	}
}

func TestWriteChrome(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(syntheticTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteChrome(&sb, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || doc.Metadata["run_id"] != "run-7" {
		t.Errorf("file header: unit=%q metadata=%v", doc.DisplayTimeUnit, doc.Metadata)
	}
	var complete, instant int
	lanes := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			complete++
			lanes[e.Args["span_id"].(string)] = e.TID
		case "i":
			instant++
		}
	}
	if complete != 5 || instant != 1 {
		t.Errorf("events: %d complete %d instant, want 5 and 1", complete, instant)
	}
	// The overlapping workers must land on different lanes; the
	// sequential stages may share the root's.
	if lanes["sp-3"] == lanes["sp-4"] {
		t.Errorf("overlapping workers share lane %d", lanes["sp-3"])
	}
	if lanes["sp-2"] != lanes["sp-1"] || lanes["sp-5"] != lanes["sp-1"] {
		t.Errorf("sequential stages should nest on the root lane: %v", lanes)
	}
	// Within a lane, "X" events must be properly nested (no partial
	// overlap) or Chrome renders garbage.
	type iv struct{ s, e float64 }
	byLane := map[int][]iv{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			byLane[e.TID] = append(byLane[e.TID], iv{e.TS, e.TS + e.Dur})
		}
	}
	for lane, ivs := range byLane {
		for i := range ivs {
			for j := range ivs {
				a, b := ivs[i], ivs[j]
				if i == j || a.e <= b.s || b.e <= a.s { // disjoint
					continue
				}
				if (a.s <= b.s && b.e <= a.e) || (b.s <= a.s && a.e <= b.e) { // nested
					continue
				}
				t.Errorf("lane %d: partial overlap [%v,%v] vs [%v,%v]", lane, a.s, a.e, b.s, b.e)
			}
		}
	}
}

func TestChromeRoundTripFile(t *testing.T) {
	path := writeTemp(t, "run.trace.jsonl", syntheticTrace)
	tr, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteChrome(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatal("chrome output is not valid JSON")
	}
}

func TestLoadRunAndDiff(t *testing.T) {
	tracePath := writeTemp(t, "a.trace.jsonl", syntheticTrace)
	a, err := LoadRun(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != "trace" || a.RunID != "run-7" {
		t.Fatalf("trace summary: %+v", a)
	}
	// Stage keys lose the pipeline/ prefix so traces diff against
	// manifests.
	if _, ok := a.Stages["simulate"]; !ok {
		t.Fatalf("trace stages: %v", a.Stages)
	}

	manifest := `{
  "tool": "repro", "run_id": "run-8",
  "started_at": "2026-08-07T00:00:00Z", "finished_at": "2026-08-07T00:00:01Z",
  "wall_ms": 1000,
  "go_version": "go1.24.0", "num_cpu": 8, "gomaxprocs": 8, "hostname": "other-host",
  "stages": {
    "simulate": {"wall_ms": 9.0},
    "dataset": {"wall_ms": 0.0001},
    "newstage": {"wall_ms": 1.0}
  }
}`
	manPath := writeTemp(t, "b.manifest.json", manifest)
	b, err := LoadRun(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if b.Source != "manifest" || b.NumCPU != 8 {
		t.Fatalf("manifest summary: %+v", b)
	}

	warns := EnvMismatches(a, b)
	if len(warns) != 3 { // cpu count, gomaxprocs, hostname
		t.Errorf("env mismatches: %v", warns)
	}

	// 2 shared stages + 1 manifest-only + 2 trace-only (repro, par/worker).
	rows := Diff(a, b)
	if len(rows) != 5 {
		t.Fatalf("diff rows: %+v", rows)
	}
	// simulate moved most (0.0045ms -> 9ms), so it sorts first; rows
	// present on only one side (NaN delta) sort last.
	if rows[0].Stage != "simulate" {
		t.Errorf("row order: %+v", rows)
	}
	if d := rows[len(rows)-1].Delta(); d == d { // NaN check without math import
		t.Errorf("one-sided row should sort last: %+v", rows)
	}

	var sb strings.Builder
	if err := WriteDiff(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"warning:", "cpu count differs", "simulate", "newstage"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}
