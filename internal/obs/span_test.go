package obs

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestSpanTreeAndRecord: a span's record is its exported line, and
// the tree lives in the lines' parent IDs — each child names its
// parent, and counters ride on the child's own line.
func TestSpanTreeAndRecord(t *testing.T) {
	var buf bytes.Buffer
	tf := NewTraceWriter(&buf, "r", "t")
	ctx, root := StartSpan(context.Background(), "run")
	root.SetSink(tf)
	cctx, child := StartSpan(ctx, "fit")
	child.SetCount("windows", 3)
	child.AddCount("windows", 2)
	_, grand := StartSpan(cctx, "solve")
	grand.End()
	child.End()
	root.End()
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}

	if SpanFromContext(cctx) != child {
		t.Error("SpanFromContext did not return the carried span")
	}
	lines := decodeTraceLines(t, buf.Bytes())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want meta + 3 spans", len(lines))
	}
	byName := map[string]map[string]any{}
	for _, l := range lines[1:] {
		byName[l["name"].(string)] = l
	}
	for name, parent := range map[string]*Span{"run": nil, "fit": root, "solve": child} {
		l := byName[name]
		if l == nil {
			t.Fatalf("no line for span %q", name)
		}
		want := 0.0
		if parent != nil {
			want = float64(parent.IDNum())
		}
		if l["parent"].(float64) != want {
			t.Errorf("%s parent = %v, want %v", name, l["parent"], want)
		}
		if l["end_ns"].(float64) < l["start_ns"].(float64) {
			t.Errorf("%s ends before it starts: %v", name, l)
		}
	}
	if got := byName["fit"]["counts"].(map[string]any)["windows"]; got != 5.0 {
		t.Errorf("fit counts windows = %v, want 5", got)
	}
	if _, ok := byName["run"]["counts"]; ok {
		t.Errorf("counts leaked onto the parent's line: %v", byName["run"])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, sp := StartSpan(context.Background(), "s")
	time.Sleep(time.Millisecond)
	sp.End()
	end := sp.end
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.end != end {
		t.Error("second End changed the end time")
	}
	if d := end.Sub(sp.start); d < time.Millisecond {
		t.Errorf("duration %v below sleep time", d)
	}
}

func TestSpanWithoutParentIsRoot(t *testing.T) {
	_, sp := StartSpan(context.Background(), "lone")
	if sp.parent != nil {
		t.Error("span from bare context has a parent")
	}
}
