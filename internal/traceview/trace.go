// Package traceview reads the JSONL span traces written by
// internal/obs (-trace) and turns them into human-facing views: a
// flame-style text report with per-stage summaries and the critical
// path, a Chrome trace_event conversion loadable in Perfetto or
// chrome://tracing, a stage-level diff between two runs, and a
// benchmark regression gate over the repo's recorded BENCH_*.json
// baselines. cmd/tracetool is the thin CLI over this package.
package traceview

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"auditherm/internal/obs"
)

// Event is one timestamped point event inside a span.
type Event struct {
	TimeNS int64          `json:"t_ns"`
	Name   string         `json:"name"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Span is one decoded span line. Children is reconstructed from the
// parent IDs after loading; spans whose parent never exported (e.g. a
// daemon's still-open root) surface as roots.
type Span struct {
	ID      uint64           `json:"id"`
	Parent  uint64           `json:"parent"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Error   string           `json:"error,omitempty"`
	Attrs   map[string]any   `json:"attrs,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
	Events  []Event          `json:"events,omitempty"`

	// ParentRun/ParentSpan are the span's cross-process link: the
	// remote caller's span as carried by the X-Auditherm-Trace header
	// (see obs.InjectTrace). Merge resolves them against the other
	// loaded traces' run IDs and re-parents the span under its caller.
	ParentRun  string `json:"parent_run,omitempty"`
	ParentSpan uint64 `json:"parent_span,omitempty"`

	DroppedAttrs  int64 `json:"dropped_attrs,omitempty"`
	DroppedEvents int64 `json:"dropped_events,omitempty"`

	Children []*Span `json:"-"`
	// Proc indexes the trace this span came from (Trace.Procs) in a
	// merged view; 0 in a single-process trace.
	Proc int `json:"-"`
}

// Duration returns the span's wall time.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// Trace is one fully loaded trace file, or the merged view of
// several (see Merge).
type Trace struct {
	// Meta is the trace's first line: the run's provenance.
	Meta  obs.TraceMeta
	Spans []*Span
	// Roots are the spans with no exported parent, ordered by start
	// time (ties broken by ID, so ordering is deterministic).
	Roots []*Span
	// Procs holds the per-process meta lines of a merged view, indexed
	// by Span.Proc; nil for a single-process trace.
	Procs []obs.TraceMeta
	byID  map[uint64]*Span
}

// Find returns the span with the given numeric ID, or nil.
func (t *Trace) Find(id uint64) *Span { return t.byID[id] }

// ReadTraceFile loads a JSONL trace from disk.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traceview: %w", err)
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("traceview: %s: %w", path, err)
	}
	return tr, nil
}

// ReadTrace decodes a JSONL trace stream: one meta line (anywhere,
// first in practice) plus one line per completed span. Unknown line
// types are skipped so the format can grow.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{byID: map[uint64]*Span{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch kind.Type {
		case "meta":
			if err := json.Unmarshal(line, &tr.Meta); err != nil {
				return nil, fmt.Errorf("line %d (meta): %w", lineNo, err)
			}
		case "span":
			var sp Span
			if err := json.Unmarshal(line, &sp); err != nil {
				return nil, fmt.Errorf("line %d (span): %w", lineNo, err)
			}
			tr.Spans = append(tr.Spans, &sp)
			tr.byID[sp.ID] = &sp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.link()
	return tr, nil
}

// link rebuilds the child lists and root set from the parent IDs.
func (t *Trace) link() {
	for _, sp := range t.Spans {
		if sp.Parent != 0 {
			if p := t.byID[sp.Parent]; p != nil {
				p.Children = append(p.Children, sp)
				continue
			}
		}
		t.Roots = append(t.Roots, sp)
	}
	byStart := func(s []*Span) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].StartNS != s[j].StartNS {
				return s[i].StartNS < s[j].StartNS
			}
			return s[i].ID < s[j].ID
		})
	}
	byStart(t.Roots)
	for _, sp := range t.Spans {
		byStart(sp.Children)
	}
}
