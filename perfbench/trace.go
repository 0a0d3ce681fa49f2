package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"auditherm/internal/obs"
	"auditherm/internal/traceview"
)

// tracer keeps the benchmark's own spans in memory and writes them out
// at the end in the repository's JSONL trace format, so
// `tracetool report` reads them. A nil *tracer is a no-op, which is how
// the untraced passes run the same code with tracing off.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	next  uint64
	spans []traceview.Span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

type spanKey struct{}

// span is one open span; end records it.
type span struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// start opens a span named name under the span carried by ctx.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		parent = p.id
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{t: t, id: id, parent: parent, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// end closes the span. Times are taken from the monotonic clock
// relative to the tracer's start, so durations never go backwards.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	base := s.t.t0.UnixNano()
	rec := traceview.Span{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: base + s.start.Sub(s.t.t0).Nanoseconds(),
		EndNS:   base + now.Sub(s.t.t0).Nanoseconds(),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// traced runs fn inside a span named name.
func traced[T any](ctx context.Context, t *tracer, name string, fn func() (T, error)) (T, error) {
	_, sp := t.start(ctx, name)
	defer sp.end()
	return fn()
}

// writeJSONL writes the meta line and every recorded span to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	host, _ := os.Hostname()
	meta, err := json.Marshal(obs.TraceMeta{
		Type:       "meta",
		RunID:      t.runID,
		Tool:       "perfbench",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   host,
		StartNS:    t.t0.UnixNano(),
	})
	if err != nil {
		f.Close()
		return err
	}
	w.Write(append(meta, '\n'))
	t.mu.Lock()
	for _, s := range t.spans {
		b := []byte(`{"type":"span","id":`)
		b = strconv.AppendUint(b, s.ID, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.Parent, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.StartNS, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.EndNS, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// attribution is a trace broken down by span name: each name's self
// time (its duration minus the part its children cover), the roots'
// total wall, and the share of that wall no layer span claims.
type attribution struct {
	self       map[string]time.Duration
	wall       time.Duration
	containers map[string]bool
}

// unattributed is the roots' wall minus every non-container self time.
func (a attribution) unattributed() time.Duration {
	rest := a.wall
	for name, d := range a.self {
		if !a.containers[name] {
			rest -= d
		}
	}
	return rest
}

// attribute reads the trace back from disk (the same parse tracetool
// uses) and attributes it. Spans named in containers (the run root,
// per-member and per-client spans) only group layer spans: their self
// time is glue, counted as unattributed.
func attribute(path string, containers map[string]bool) (attribution, error) {
	tr, err := traceview.ReadTraceFile(path)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{self: map[string]time.Duration{}, containers: containers}
	for _, s := range tr.Spans {
		self := s.Duration()
		for _, c := range s.Children {
			self -= c.Duration()
		}
		key := s.Name
		if i := containerKey(s.Name); i != "" {
			key = i
		}
		a.self[key] += self
	}
	for _, r := range tr.Roots {
		a.wall += r.Duration()
	}
	return a, nil
}

// containerKey folds per-member and per-client container names
// ("member/b0003", "client/1") into one bucket.
func containerKey(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}
