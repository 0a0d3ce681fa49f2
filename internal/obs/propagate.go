package obs

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// Trace context propagation across HTTP boundaries. A process that
// calls another auditherm process (the remote artifact tier, the
// serve daemon's /v1 endpoints) stamps its current span onto the
// request as
//
//	X-Auditherm-Trace: <run-id>/<span-id>
//
// and the server records the reference as a span *link*: the server's
// own span tree stays rooted locally (its IDs are process-scoped),
// but the exported JSONL line gains parent_run/parent_span fields
// naming the caller's span. tracetool merge later stitches the trees
// by those links into one cross-process view.
//
// Both directions stay off the allocator in steady state: InjectTrace
// memoizes the encoded reference on the span and reuses the header's
// value slot, and ExtractTrace parses by substring.
// TestHotPathsZeroAllocs holds both at 0 allocs, next to span encode.

// TraceHeader is the HTTP header carrying the caller's trace context.
// The constant is already in canonical MIME form, so direct
// http.Header map access needs no re-canonicalization.
const TraceHeader = "X-Auditherm-Trace"

// RunHeader is the HTTP response header carrying the server's run ID
// (the serve daemon stamps one per request). Clients record it as a
// span attribute so a client trace names the server run it touched
// even before the traces are merged.
const RunHeader = "X-Auditherm-Run"

// maxTraceRunIDLen bounds the run-id part accepted off the wire.
// NewRunID emits 16 hex chars; the bound leaves headroom for foreign
// formats without letting a hostile header bloat manifests.
const maxTraceRunIDLen = 64

// TraceRef names one span in one run: the wire unit of trace context.
type TraceRef struct {
	RunID string
	Span  uint64
}

// IsZero reports whether the reference is empty.
func (r TraceRef) IsZero() bool { return r.RunID == "" && r.Span == 0 }

// String renders the wire form "<run-id>/<span-id>".
func (r TraceRef) String() string {
	return r.RunID + "/" + strconv.FormatUint(r.Span, 10)
}

// Parse errors. Sentinels, not fmt-wrapped: extraction sits on the
// daemon's per-request path and a hostile header must not cost an
// allocation per rejection.
var (
	errTraceRefSyntax = errors.New(`obs: malformed trace ref (want "<run-id>/<span-id>")`)
	errTraceRefRunID  = errors.New("obs: malformed trace ref: run id empty, oversized or not printable ASCII")
	errTraceRefSpan   = errors.New("obs: malformed trace ref: span id not a positive integer")
)

// ParseTraceRef parses the wire form "<run-id>/<span-id>". The run-id
// part must be 1..64 printable ASCII bytes (0x21-0x7E) with no '/':
// it arrives from another process and is copied into trace lines and
// manifests. The span part must be a positive decimal uint64. Allocation-free (the returned RunID
// aliases the input).
func ParseTraceRef(s string) (TraceRef, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 || strings.IndexByte(s[i+1:], '/') >= 0 {
		return TraceRef{}, errTraceRefSyntax
	}
	run := s[:i]
	if run == "" || len(run) > maxTraceRunIDLen {
		return TraceRef{}, errTraceRefRunID
	}
	for j := 0; j < len(run); j++ {
		if run[j] < 0x21 || run[j] > 0x7e {
			return TraceRef{}, errTraceRefRunID
		}
	}
	id, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil || id == 0 {
		return TraceRef{}, errTraceRefSpan
	}
	return TraceRef{RunID: run, Span: id}, nil
}

// ClientSpan begins a span for an outbound request (the client half
// of a cross-process call), parented under ctx's span when one is
// carried. Unlike StartSpan it returns no derived context — an
// outbound call nests no further local work; inject the returned
// span's reference into the request instead (InjectTrace).
func ClientSpan(ctx context.Context, name string) *Span {
	c := newSpan(name)
	c.parent = SpanFromContext(ctx)
	return c
}

// SetRunID stamps the trace run ID on the span. CLI runtimes and the
// serve daemon stamp their root spans; descendants inherit the
// nearest ancestor's ID (TraceRunID), so injection works from any
// span under a stamped root without per-span bookkeeping.
func (s *Span) SetRunID(runID string) {
	if runID == "" {
		return
	}
	s.runID.Store(&runID)
}

// TraceRunID returns the run ID governing this span: its own if
// stamped, else the nearest stamped ancestor's, else "".
func (s *Span) TraceRunID() string {
	for sp := s; sp != nil; sp = sp.parent {
		if p := sp.runID.Load(); p != nil {
			return *p
		}
	}
	return ""
}

// WireRef returns the span's wire reference "<run-id>/<span-id>", or
// "" when no run ID is stamped on the span or an ancestor. The
// encoded string is memoized on the span, so repeated injections (a
// pipeline stage fanning many remote fetches under one span) cost
// zero allocations after the first.
func (s *Span) WireRef() string {
	if p := s.wireRef.Load(); p != nil {
		return *p
	}
	run := s.TraceRunID()
	if run == "" {
		return ""
	}
	ref := run + "/" + strconv.FormatUint(s.id, 10)
	s.wireRef.Store(&ref)
	return ref
}

// SetLink records a cross-process parent for the span: the caller's
// span as carried by the trace header. The link is exported with the
// span's JSONL line as parent_run/parent_span; the in-process parent
// (tree structure) is unaffected.
func (s *Span) SetLink(ref TraceRef) {
	if ref.RunID == "" || ref.Span == 0 {
		return
	}
	s.mu.Lock()
	s.linkRun = ref.RunID
	s.linkSpan = ref.Span
	s.mu.Unlock()
}

// Link returns the span's cross-process parent reference (zero when
// unlinked).
func (s *Span) Link() TraceRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TraceRef{RunID: s.linkRun, Span: s.linkSpan}
}

// InjectTrace stamps sp's wire reference onto h, replacing any
// existing value. Returns false (header untouched) when sp is nil or
// carries no run ID — a caller without trace context sends nothing,
// and the server falls back to an unlinked root. Steady-state
// zero-alloc: the reference string is memoized on the span and an
// existing header slot is reused in place.
func InjectTrace(h http.Header, sp *Span) bool {
	if sp == nil {
		return false
	}
	ref := sp.WireRef()
	if ref == "" {
		return false
	}
	if vs := h[TraceHeader]; len(vs) > 0 {
		vs[0] = ref
		if len(vs) > 1 {
			h[TraceHeader] = vs[:1]
		}
		return true
	}
	h[TraceHeader] = []string{ref}
	return true
}

// ExtractTrace reads the trace header from h. Returns ok=false when
// the header is absent (not an error: untraced callers are normal),
// and a non-nil error when a header is present but malformed — the
// caller counts the failure and proceeds unlinked. Allocation-free.
func ExtractTrace(h http.Header) (TraceRef, bool, error) {
	vs := h[TraceHeader]
	if len(vs) == 0 {
		return TraceRef{}, false, nil
	}
	ref, err := ParseTraceRef(vs[0])
	if err != nil {
		return TraceRef{}, true, err
	}
	return ref, true, nil
}
