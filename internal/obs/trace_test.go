package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// decodeTraceLines decodes every JSONL line into a generic map.
func decodeTraceLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("line %d is not valid JSON: %s", i+1, line)
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		out = append(out, m)
	}
	return out
}

func TestTraceExportJSONL(t *testing.T) {
	var buf bytes.Buffer
	tf := NewTraceWriter(&buf, "run-123", "testtool")
	prev := SetTraceExporter(tf)
	defer SetTraceExporter(prev)

	root := newSpan("root")
	child := root.StartChild("stage/a")
	child.SetAttr(String("key", "abc123"))
	child.SetAttr(Bool("cache_hit", true))
	child.SetAttr(Float("score", 0.5))
	child.SetCount("items", 42)
	child.Event("checkpoint")
	child.EventAttr("alarm", String("sensor", "s07"))
	child.SetError(errors.New("stage exploded"))
	child.End()
	root.End()

	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tf.Spans(); got != 2 {
		t.Fatalf("Spans() = %d, want 2", got)
	}

	lines := decodeTraceLines(t, buf.Bytes())
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want meta + 2 spans", len(lines))
	}

	meta := lines[0]
	if meta["type"] != "meta" || meta["run_id"] != "run-123" || meta["tool"] != "testtool" {
		t.Errorf("bad meta line: %v", meta)
	}
	for _, key := range []string{"go_version", "gomaxprocs", "num_cpu", "start_unix_ns"} {
		if _, ok := meta[key]; !ok {
			t.Errorf("meta line missing %q", key)
		}
	}

	// Children End before parents, so the child is line 2.
	sp := lines[1]
	if sp["type"] != "span" || sp["name"] != "stage/a" {
		t.Fatalf("bad child span line: %v", sp)
	}
	if sp["parent"].(float64) != float64(root.IDNum()) {
		t.Errorf("child parent = %v, want %d", sp["parent"], root.IDNum())
	}
	if sp["error"] != "stage exploded" {
		t.Errorf("error = %v", sp["error"])
	}
	attrs := sp["attrs"].(map[string]any)
	if attrs["key"] != "abc123" || attrs["cache_hit"] != true || attrs["score"].(float64) != 0.5 {
		t.Errorf("attrs = %v", attrs)
	}
	counts := sp["counts"].(map[string]any)
	if counts["items"].(float64) != 42 {
		t.Errorf("counts = %v", counts)
	}
	events := sp["events"].([]any)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	ev := events[1].(map[string]any)
	if ev["name"] != "alarm" || ev["attrs"].(map[string]any)["sensor"] != "s07" {
		t.Errorf("event = %v", ev)
	}
	if _, ok := ev["t_ns"]; !ok {
		t.Error("event missing t_ns")
	}

	rootLine := lines[2]
	if rootLine["name"] != "root" || rootLine["parent"].(float64) != 0 {
		t.Errorf("bad root line: %v", rootLine)
	}
	if end := rootLine["end_ns"].(float64); end < rootLine["start_ns"].(float64) {
		t.Errorf("end_ns %v before start_ns %v", end, rootLine["start_ns"])
	}
}

func TestTraceEscapesAndSecondEndDoesNotReexport(t *testing.T) {
	var buf bytes.Buffer
	tf := NewTraceWriter(&buf, "r", "t")
	prev := SetTraceExporter(tf)
	defer SetTraceExporter(prev)

	sp := newSpan("weird \"name\"\nwith\tescapes")
	sp.SetAttr(String("msg", `quote " backslash \ done`))
	sp.End()
	sp.End() // second End must not write a second line
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}
	SetTraceExporter(prev)

	lines := decodeTraceLines(t, buf.Bytes())
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want meta + 1 span", len(lines))
	}
	got := lines[1]
	if got["name"] != "weird \"name\"\nwith\tescapes" {
		t.Errorf("name round-trip failed: %q", got["name"])
	}
	if got["attrs"].(map[string]any)["msg"] != `quote " backslash \ done` {
		t.Errorf("attr round-trip failed: %v", got["attrs"])
	}
}

// TestTraceFileOnDisk: a trace written through NewTraceWriter over a
// file is complete on disk once Close flushes it, and Close
// uninstalls the exporter so the caller can close the file safely.
func TestTraceFileOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf := NewTraceWriter(f, "run-xyz", "audsim")
	prev := SetTraceExporter(tf)
	newSpan("solo").End()
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if TraceExporter() == tf {
		t.Error("Close left the exporter installed")
	}
	SetTraceExporter(prev)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeTraceLines(t, data)
	if len(lines) != 2 || lines[1]["name"] != "solo" {
		t.Fatalf("trace file contents: %d lines %v", len(lines), lines)
	}
}

func TestSpanAttrBounds(t *testing.T) {
	sp := newSpan("bounded")
	for i := 0; i < MaxSpanAttrs+5; i++ {
		sp.SetAttr(Int(fmt.Sprintf("k%02d", i), int64(i)))
	}
	// Overwriting an existing key must not count against the bound.
	sp.SetAttr(Int("k00", 999))
	attrs := sp.attrs
	if len(attrs) != MaxSpanAttrs {
		t.Errorf("len(attrs) = %d, want %d", len(attrs), MaxSpanAttrs)
	}
	if attrs[0].Num != 999 {
		t.Errorf("overwrite in place failed: %v", attrs[0])
	}
	dropA, _ := sp.Dropped()
	if dropA != 5 {
		t.Errorf("dropped attrs = %d, want 5", dropA)
	}
}

func TestSpanEventBounds(t *testing.T) {
	sp := newSpan("bounded")
	for i := 0; i < MaxSpanEvents+3; i++ {
		sp.Event("e")
	}
	if got := len(sp.events); got != MaxSpanEvents {
		t.Errorf("len(events) = %d, want %d", got, MaxSpanEvents)
	}
	_, dropE := sp.Dropped()
	if dropE != 3 {
		t.Errorf("dropped events = %d, want 3", dropE)
	}
}

// TestTraceInvalidUTF8: bytes from other processes (a trace header's
// run id, a remote tier's X-Auditherm-Run) must not make a line
// invalid UTF-8. Each byte of an invalid sequence encodes as \ufffd,
// byte for byte what encoding/json writes; valid UTF-8 passes through.
func TestTraceInvalidUTF8(t *testing.T) {
	for _, s := range []string{"\xff\xfe\"q", "héllo wörld", "cut\xe2\x82", "ok\xc3\x28", "\xed\xa0\x80", "€\x80"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}

	var buf bytes.Buffer
	tf := NewTraceWriter(&buf, "r", "t")
	sp := newSpan("remote \xff\xfe")
	sp.SetSink(tf)
	sp.SetAttr(String("server_run", "\xff\xfeabc"))
	sp.SetLink(TraceRef{RunID: "\xff\xfe\"q", Span: 5})
	sp.End()
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}
	if !utf8.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid UTF-8: %q", buf.Bytes())
	}
	line := decodeTraceLines(t, buf.Bytes())[1]
	if line["name"] != "remote \ufffd\ufffd" || line["parent_run"] != "\ufffd\ufffd\"q" ||
		line["attrs"].(map[string]any)["server_run"] != "\ufffd\ufffdabc" {
		t.Errorf("decoded line = %v", line)
	}
}
