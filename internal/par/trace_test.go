package par

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"auditherm/internal/obs"
	"auditherm/internal/traceview"
)

// exported flushes tf and reads back what it wrote to buf, returning
// the trace and root's decoded line.
func exported(t *testing.T, tf *obs.TraceFile, buf *bytes.Buffer, root *obs.Span) (*traceview.Trace, *traceview.Span) {
	t.Helper()
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := traceview.ReadTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Find(root.IDNum())
	if sp == nil {
		t.Fatalf("root span %s not exported", root.ID())
	}
	return tr, sp
}

// TestWorkerSpans: a batch submitted under a span gets one
// worker-attributed child span per worker goroutine, whose claimed
// task counts account for the whole batch.
func TestWorkerSpans(t *testing.T) {
	var buf bytes.Buffer
	tf := obs.NewTraceWriter(&buf, "par-run", "par-test")
	ctx, root := obs.StartSpan(context.Background(), "batch")
	root.SetSink(tf)
	const n = 300
	var ran atomic.Int64
	if err := ForEach(ctx, 4, n, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	_, batch := exported(t, tf, &buf, root)
	workers := 0
	var claimed int64
	seen := map[float64]bool{}
	for _, c := range batch.Children {
		if c.Name != "par/worker" {
			continue
		}
		workers++
		w, ok := c.Attrs["worker"].(float64)
		if !ok {
			t.Fatalf("worker span missing worker attr: %v", c.Attrs)
		}
		if seen[w] {
			t.Errorf("duplicate worker index %v", w)
		}
		seen[w] = true
		claimed += c.Counts["tasks"]
	}
	if workers < 1 || workers > 4 {
		t.Errorf("got %d worker spans, want 1..4", workers)
	}
	if claimed != n {
		t.Errorf("worker spans claim %d tasks, want %d", claimed, n)
	}
}

// TestWorkerSpansSerialPathFree: the serial fast path (and the
// span-free context) must not grow the span tree.
func TestWorkerSpansSerialPathFree(t *testing.T) {
	var buf bytes.Buffer
	tf := obs.NewTraceWriter(&buf, "par-run", "par-test")
	ctx, root := obs.StartSpan(context.Background(), "serial")
	root.SetSink(tf)
	if err := ForEach(ctx, 1, 10, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	if tr, _ := exported(t, tf, &buf, root); len(tr.Spans) != 1 {
		t.Errorf("serial path created %d child spans, want 0", len(tr.Spans)-1)
	}
	// No span in the context: parallel path stays span-free too.
	if err := ForEach(context.Background(), 4, 50, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSpanMutation drives StartSpan/StartChild, AddCount,
// SetAttr and Event concurrently from par workers under one parent
// with a live JSONL exporter — the -race gate for the whole span
// surface (run via `make race`, which includes this package).
func TestConcurrentSpanMutation(t *testing.T) {
	var buf bytes.Buffer
	tf := obs.NewTraceWriter(&buf, "race-run", "par-test")
	prev := obs.SetTraceExporter(tf)
	defer func() { obs.SetTraceExporter(prev); _ = tf.Close() }()

	ctx, root := obs.StartSpan(context.Background(), "race-batch")
	const n = 200
	if err := ForEach(ctx, 8, n, func(i int) error {
		root.AddCount("tasks_done", 1)
		root.Event("tick")
		root.SetAttr(obs.Int(fmt.Sprintf("k%d", i%20), int64(i)))
		_, child := obs.StartSpan(ctx, "task")
		child.SetCount("i", int64(i))
		child.End()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr, batch := exported(t, tf, &buf, root)
	if got := batch.Counts["tasks_done"]; got != n {
		t.Errorf("tasks_done = %d, want %d", got, n)
	}
	// n task children + worker children; event and attr drops counted,
	// never lost silently.
	if got := int64(len(batch.Events)) + batch.DroppedEvents; got != n {
		t.Errorf("events %d + dropped %d != %d", len(batch.Events), batch.DroppedEvents, n)
	}
	if len(tr.Spans) < n {
		t.Errorf("exported %d spans, want >= %d", len(tr.Spans), n)
	}
}
