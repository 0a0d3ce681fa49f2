package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestParseTraceRef(t *testing.T) {
	good := []struct {
		in   string
		want TraceRef
	}{
		{"deadbeefdeadbeef/42", TraceRef{RunID: "deadbeefdeadbeef", Span: 42}},
		{"run-norand/1", TraceRef{RunID: "run-norand", Span: 1}},
		{"a/18446744073709551615", TraceRef{RunID: "a", Span: 1<<64 - 1}},
	}
	for _, tc := range good {
		got, err := ParseTraceRef(tc.in)
		if err != nil {
			t.Errorf("ParseTraceRef(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTraceRef(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("roundtrip %q -> %q", tc.in, got.String())
		}
	}

	bad := []string{
		"",             // empty
		"deadbeef",     // no slash
		"/42",          // empty run
		"deadbeef/",    // empty span
		"deadbeef/0",   // span id 0 is reserved for "no parent"
		"deadbeef/-1",  // negative
		"deadbeef/4x",  // non-decimal
		"a/b/c",        // extra slash
		"deadbeef/ 42", // space
		strings.Repeat("r", maxTraceRunIDLen+1) + "/1", // oversized run id
		"\xff\xfe\"q/5", // run id not printable ASCII (invalid UTF-8 in a trace line)
		"run id/5",      // space in run id
		"run\x7f/5",     // DEL in run id
		"runé/5",        // non-ASCII run id
	}
	for _, in := range bad {
		if ref, err := ParseTraceRef(in); err == nil {
			t.Errorf("ParseTraceRef(%q) = %+v, want error", in, ref)
		}
	}
}

func TestInjectTrace(t *testing.T) {
	h := http.Header{}
	if InjectTrace(h, nil) {
		t.Fatal("InjectTrace(nil span) = true")
	}

	// A span with no stamped run ID anywhere has no wire identity:
	// the header must stay untouched so the server sees an untraced
	// caller, not a malformed one.
	bare := newSpan("bare")
	if InjectTrace(h, bare) || len(h) != 0 {
		t.Fatalf("InjectTrace(unstamped span) touched header: %v", h)
	}
	if got := bare.WireRef(); got != "" {
		t.Fatalf("WireRef(unstamped) = %q, want \"\"", got)
	}

	root := newSpan("root")
	root.SetRunID("feedc0de00000001")
	ctx, child := StartSpan(ContextWithSpan(context.Background(), root), "child")
	_, grand := StartSpan(ctx, "grandchild")

	// Children inherit the root's run ID through the parent chain.
	wantGrand := "feedc0de00000001/" + grand.ID()[len("sp-"):]
	if !InjectTrace(h, grand) {
		t.Fatal("InjectTrace(stamped descendant) = false")
	}
	if got := h.Get(TraceHeader); got != wantGrand {
		t.Fatalf("header = %q, want %q", got, wantGrand)
	}

	// Re-injecting a different span replaces (not appends) the value.
	h[TraceHeader] = append(h[TraceHeader], "stale/1")
	if !InjectTrace(h, child) {
		t.Fatal("InjectTrace(child) = false")
	}
	if vs := h[TraceHeader]; len(vs) != 1 || vs[0] != root.TraceRunID()+"/"+child.ID()[len("sp-"):] {
		t.Fatalf("header after re-inject = %v", vs)
	}

	// The round-trips back out through ExtractTrace.
	ref, ok, err := ExtractTrace(h)
	if err != nil || !ok {
		t.Fatalf("ExtractTrace: ok=%v err=%v", ok, err)
	}
	if ref.RunID != "feedc0de00000001" || ref.Span != child.IDNum() {
		t.Fatalf("ExtractTrace = %+v, want run feedc0de00000001 span %d", ref, child.IDNum())
	}
}

func TestExtractTraceAbsentAndMalformed(t *testing.T) {
	if ref, ok, err := ExtractTrace(http.Header{}); ok || err != nil || !ref.IsZero() {
		t.Fatalf("ExtractTrace(absent) = %+v, %v, %v; want zero, false, nil", ref, ok, err)
	}
	h := http.Header{TraceHeader: []string{"not-a-ref"}}
	ref, ok, err := ExtractTrace(h)
	if !ok || err == nil {
		t.Fatalf("ExtractTrace(malformed) = %+v, %v, %v; want present=true with error", ref, ok, err)
	}
}

func TestSpanLinkExport(t *testing.T) {
	var buf bytes.Buffer
	tf := NewTraceWriter(&buf, "server-run", "test")

	sp := newSpan("serve/request")
	sp.SetLink(TraceRef{RunID: "client-run", Span: 7})
	sp.SetSink(tf)
	sp.End()
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want meta + span", len(lines))
	}
	var rec struct {
		Type       string `json:"type"`
		ParentRun  string `json:"parent_run"`
		ParentSpan uint64 `json:"parent_span"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("span line is not valid JSON: %v\n%s", err, lines[1])
	}
	if rec.ParentRun != "client-run" || rec.ParentSpan != 7 {
		t.Fatalf("exported link = %s/%d, want client-run/7", rec.ParentRun, rec.ParentSpan)
	}
	if got := sp.Link(); got != (TraceRef{RunID: "client-run", Span: 7}) {
		t.Fatalf("Link() = %+v", got)
	}

	// A zero link is a no-op and must not emit the fields.
	buf.Reset()
	tf2 := NewTraceWriter(&buf, "server-run", "test")
	un := newSpan("serve/unlinked")
	un.SetLink(TraceRef{})
	un.SetSink(tf2)
	un.End()
	_ = tf2.Flush()
	if strings.Contains(buf.String(), "parent_run") {
		t.Fatalf("unlinked span exported parent_run:\n%s", buf.String())
	}
}

// TestSpanSinkRouting: two root spans in one process write to two
// different trace files via SetSink, while a sink-less span still
// reaches the process-wide exporter — the mechanism that lets an
// in-process e2e test produce distinct client and daemon traces.
func TestSpanSinkRouting(t *testing.T) {
	var clientBuf, daemonBuf, globalBuf bytes.Buffer
	client := NewTraceWriter(&clientBuf, "client-run", "test")
	daemon := NewTraceWriter(&daemonBuf, "daemon-run", "test")
	global := NewTraceWriter(&globalBuf, "global-run", "test")
	prev := SetTraceExporter(global)
	defer SetTraceExporter(prev)

	clientRoot := newSpan("client/root")
	clientRoot.SetSink(client)
	daemonRoot := newSpan("daemon/root")
	daemonRoot.SetSink(daemon)

	// Descendants find the nearest ancestor sink.
	clientRoot.StartChild("client/child").End()
	daemonRoot.StartChild("daemon/child").End()
	clientRoot.End()
	daemonRoot.End()
	loose := newSpan("loose")
	loose.End()

	_ = client.Flush()
	_ = daemon.Flush()
	_ = global.Flush()

	if n := client.Spans(); n != 2 {
		t.Fatalf("client trace has %d spans, want 2", n)
	}
	if n := daemon.Spans(); n != 2 {
		t.Fatalf("daemon trace has %d spans, want 2", n)
	}
	if n := global.Spans(); n != 1 {
		t.Fatalf("global trace has %d spans, want 1 (the sink-less span)", n)
	}
	if strings.Contains(clientBuf.String(), "daemon/") || strings.Contains(daemonBuf.String(), "client/") {
		t.Fatal("sink routing crossed streams")
	}
}

// traceInject is the client-side injection hot path: stamp a
// memoized wire ref into an existing header (a pipeline stage fanning
// hundreds of remote fetches must not pay per-request garbage).
func traceInject(testing.TB) func() {
	root := newSpan("bench/root")
	root.SetRunID("feedc0de00000001")
	sp := root.StartChild("bench/fetch")
	h := http.Header{}
	InjectTrace(h, sp) // warm: memoize the ref, allocate the header slot
	return func() { InjectTrace(h, sp) }
}

// traceExtract is the server-side extraction hot path, run once per
// daemon request: parse "<run>/<span>" out of the request header.
func traceExtract(tb testing.TB) func() {
	h := http.Header{TraceHeader: []string{"feedc0de00000001/12345"}}
	return func() {
		ref, ok, err := ExtractTrace(h)
		if !ok || err != nil || ref.Span != 12345 {
			tb.Fatal("bad extract")
		}
	}
}

func BenchmarkTraceInject(b *testing.B)  { benchOp(b, traceInject) }
func BenchmarkTraceExtract(b *testing.B) { benchOp(b, traceExtract) }
