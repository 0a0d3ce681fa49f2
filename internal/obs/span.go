package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Bounds on per-span payload. A span holds its attributes and events
// until End exports it; without bounds one long-lived span (a
// daemon's root, a monitor loop's span) would grow without limit.
// Overflow never errors — it increments the matching drop counter,
// which is exported with the span so a truncated span is visible as
// truncated.
const (
	// MaxSpanAttrs bounds the typed attributes one span can carry.
	MaxSpanAttrs = 16
	// MaxSpanEvents bounds the timestamped events one span can carry.
	MaxSpanEvents = 64
)

// AttrKind discriminates the value held by an Attr.
type AttrKind uint8

// Attribute kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one typed span attribute. Build them with the String, Int,
// Float and Bool constructors; the zero Attr (empty key) means "no
// attribute".
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Num  int64   // AttrInt value; AttrBool stores 0/1
	F    float64 // AttrFloat value
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Int builds an int64 attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Num: v} }

// Float builds a float64 attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, F: v} }

// Bool builds a bool attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: AttrBool}
	if v {
		a.Num = 1
	}
	return a
}

// spanEvent is one timestamped point event inside a span.
type spanEvent struct {
	at   time.Time
	name string
	attr Attr // optional; Key == "" means none
}

// Span is one timed region of work. A span started with
// StartSpan(ctx, ...) under a context carrying a span records that
// span as its parent. Spans carry their own counters (SetCount), typed
// attributes (SetAttr), timestamped events (Event/EventAttr) and an
// error status (SetError), so stage-level context travels with the
// timing into the exported trace.
//
// A span's only output is its JSONL line: at its first End it streams
// to its trace sink (SetSink, else the process-wide exporter). A span
// keeps no list of its children — each child names its parent, and
// readers (internal/traceview) rebuild the tree from those IDs.
type Span struct {
	Name string

	id uint64

	mu     sync.Mutex
	start  time.Time
	end    time.Time
	counts map[string]int64
	parent *Span

	attrs      []Attr // lazily allocated, bounded by MaxSpanAttrs
	events     []spanEvent
	errMsg     string
	failed     bool
	linkRun    string // cross-process parent run (SetLink)
	linkSpan   uint64 // cross-process parent span id (SetLink)
	dropAttrs  int64
	dropEvents int64

	// Trace-propagation state, atomic so WireRef/End can walk the
	// (immutable-after-start) parent chain without taking ancestor
	// locks. runID is stamped on roots (SetRunID) and inherited;
	// wireRef memoizes the encoded "<run>/<id>" for 0-alloc
	// injection; sink routes this subtree's exported spans to a
	// specific TraceFile instead of the process-wide exporter.
	runID   atomic.Pointer[string]
	wireRef atomic.Pointer[string]
	sink    atomic.Pointer[TraceFile]
}

type spanKey struct{}

// spanSeq numbers spans process-wide; the ID joins log records,
// journal entries, manifests and trace files emitted under the same
// span.
var spanSeq atomic.Uint64

// ID returns the span's process-unique identifier ("sp-<n>").
func (s *Span) ID() string { return "sp-" + strconv.FormatUint(s.id, 10) }

// IDNum returns the span's numeric identifier (the <n> of "sp-<n>");
// the trace file and metric exemplars store this form.
func (s *Span) IDNum() uint64 { return s.id }

func newSpan(name string) *Span {
	return &Span{Name: name, id: spanSeq.Add(1), start: time.Now()}
}

// StartSpan begins a span named name. If ctx already carries a span,
// that span becomes the new span's parent. The returned context
// carries the new span; pass it to nested stages.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := newSpan(name)
	sp.parent = SpanFromContext(ctx)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartChild begins a child span without threading a context — the
// worker-pool fast path (internal/par) uses it to attribute work to
// the submitting span from goroutines that own no derived context.
func (s *Span) StartChild(name string) *Span {
	c := newSpan(name)
	c.parent = s
	return c
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns a copy of ctx carrying sp, so a subsequent
// StartSpan records sp as its span's parent. The serving daemon uses
// it to root request spans under the long-lived daemon span while
// keeping each request's own cancellation (the incoming
// http.Request context).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// End marks the span finished and streams the completed span to its
// trace sink: the nearest ancestor sink installed with SetSink, else
// the process-wide exporter. Safe to call more than once; the first
// call wins (and exports).
func (s *Span) End() {
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	t := s.findSink()
	if t == nil {
		t = traceExporter.Load()
	}
	if t != nil {
		t.writeSpanLocked(s)
	}
	s.mu.Unlock()
}

// findSink returns the nearest per-subtree trace sink on s or an
// ancestor, or nil. Parent pointers are immutable once a span is
// published and sinks are atomic, so the walk needs no locks (End
// already holds s.mu).
func (s *Span) findSink() *TraceFile {
	for sp := s; sp != nil; sp = sp.parent {
		if t := sp.sink.Load(); t != nil {
			return t
		}
	}
	return nil
}

// SetAttr attaches a typed attribute. An existing attribute with the
// same key is overwritten in place; beyond MaxSpanAttrs distinct keys
// new attributes are dropped and counted. Zero allocations once the
// span's attribute storage exists (first call allocates it).
func (s *Span) SetAttr(a Attr) {
	if a.Key == "" {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			s.mu.Unlock()
			return
		}
	}
	if len(s.attrs) >= MaxSpanAttrs {
		s.dropAttrs++
		s.mu.Unlock()
		return
	}
	if s.attrs == nil {
		s.attrs = make([]Attr, 0, 4)
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// Event records a timestamped point event on the span.
func (s *Span) Event(name string) { s.EventAttr(name, Attr{}) }

// EventAttr records a timestamped event carrying one attribute (e.g.
// a monitor alarm with its sensor name). Beyond MaxSpanEvents the
// event is dropped and counted.
func (s *Span) EventAttr(name string, a Attr) {
	now := time.Now()
	s.mu.Lock()
	if len(s.events) >= MaxSpanEvents {
		s.dropEvents++
		s.mu.Unlock()
		return
	}
	if s.events == nil {
		s.events = make([]spanEvent, 0, 8)
	}
	s.events = append(s.events, spanEvent{at: now, name: name, attr: a})
	s.mu.Unlock()
}

// SetError marks the span failed and records the error message. A nil
// error is ignored.
func (s *Span) SetError(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.failed = true
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// Dropped returns the span's overflow tallies: attributes and events
// discarded at the package bounds.
func (s *Span) Dropped() (attrs, events int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropAttrs, s.dropEvents
}

// SetCount attaches (or overwrites) a named counter on the span.
func (s *Span) SetCount(key string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[key] = v
}

// AddCount increments a named counter on the span.
func (s *Span) AddCount(key string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[key] += delta
}
