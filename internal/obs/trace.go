package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Trace export: a completed span's only output is one JSONL line. The
// lines stream to a per-run trace (the -trace file, the /debug/trace
// ring, or both) so a run's full timing story survives the process.
// One line per completed span, preceded by one meta line carrying the
// run's provenance, so any line of the file can be joined back to the
// run manifest, the structured log and the alert journal on run_id,
// and to metric exemplars on the numeric span id.
//
// The encoder is hand-rolled into a reusable buffer: exporting a span
// allocates nothing in steady state (gated in BENCH_trace.json), so
// tracing can stay on in a serving daemon.

// TraceMeta is the first line of a trace file: the run's provenance,
// mirrored from the manifest so a trace is self-describing even when
// the manifest was not requested.
type TraceMeta struct {
	Type       string `json:"type"` // always "meta"
	RunID      string `json:"run_id"`
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname,omitempty"`
	StartNS    int64  `json:"start_unix_ns"`
}

// TraceFile is a streaming JSONL trace sink over a caller-owned
// writer. Install it process-wide with SetTraceExporter; every
// Span.End then appends one line. Safe for concurrent use.
type TraceFile struct {
	mu    sync.Mutex
	w     *bufio.Writer
	buf   []byte   // encode scratch, reused across spans
	keys  []string // count-key sort scratch, reused across spans
	runID string
	spans int64
	err   error // first write error; later spans are dropped
}

// traceExporter is the process-wide exporter consulted by Span.End.
var traceExporter atomic.Pointer[TraceFile]

// SetTraceExporter installs t as the process-wide trace sink (nil
// uninstalls) and returns the previous exporter. CLI runtimes install
// their trace (the -trace file, the /debug/trace ring, or both) at
// startup; tests swap in their own sinks.
func SetTraceExporter(t *TraceFile) *TraceFile {
	if t == nil {
		return traceExporter.Swap(nil)
	}
	return traceExporter.Swap(t)
}

// TraceExporter returns the installed exporter, or nil.
func TraceExporter() *TraceFile { return traceExporter.Load() }

// NewTraceWriter wraps w as a trace sink and buffers its meta line.
// Close flushes but does not close w; the caller owns it.
func NewTraceWriter(w io.Writer, runID, tool string) *TraceFile {
	host, _ := os.Hostname()
	t := &TraceFile{
		w:     bufio.NewWriterSize(w, 64<<10),
		buf:   make([]byte, 0, 4<<10),
		runID: runID,
	}
	meta := TraceMeta{
		Type:       "meta",
		RunID:      runID,
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   host,
		StartNS:    time.Now().UnixNano(),
	}
	data, err := json.Marshal(meta)
	if err == nil {
		_, err = t.w.Write(append(data, '\n'))
	}
	t.err = err
	return t
}

// RunID returns the run ID written to the trace's meta line.
func (t *TraceFile) RunID() string { return t.runID }

// SetSink routes this span's subtree to t instead of the process-wide
// exporter: every descendant's End walks its ancestors and uses the
// nearest sink found. The serve daemon's e2e tests use it to write a
// client trace and a daemon trace from one process; nil restores the
// default.
func (s *Span) SetSink(t *TraceFile) { s.sink.Store(t) }

// Spans returns the number of span lines written so far.
func (t *TraceFile) Spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Flush flushes buffered lines to the underlying writer.
func (t *TraceFile) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes the trace. If this exporter is still installed
// process-wide it uninstalls itself first, so no span can race a
// write against the caller closing the underlying writer.
func (t *TraceFile) Close() error {
	traceExporter.CompareAndSwap(t, nil)
	return t.Flush()
}

// writeSpanLocked encodes one completed span as a JSONL line. The
// caller (Span.End) holds s.mu, so the span's fields are stable; this
// method serializes writers on t.mu. Zero allocations in steady state:
// everything appends into t.buf / t.keys, which are reused.
func (t *TraceFile) writeSpanLocked(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"type":"span","id":`...)
	b = strconv.AppendUint(b, s.id, 10)
	b = append(b, `,"parent":`...)
	if s.parent != nil {
		b = strconv.AppendUint(b, s.parent.id, 10)
	} else {
		b = append(b, '0')
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, s.start.UnixNano(), 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, s.end.UnixNano(), 10)
	if s.failed {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, s.errMsg)
	}
	if s.linkRun != "" {
		b = append(b, `,"parent_run":`...)
		b = appendJSONString(b, s.linkRun)
		b = append(b, `,"parent_span":`...)
		b = strconv.AppendUint(b, s.linkSpan, 10)
	}
	if len(s.attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i := range s.attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAttr(b, s.attrs[i])
		}
		b = append(b, '}')
	}
	if len(s.counts) > 0 {
		t.keys = t.keys[:0]
		for k := range s.counts {
			t.keys = append(t.keys, k)
		}
		sort.Strings(t.keys)
		b = append(b, `,"counts":{`...)
		for i, k := range t.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, k)
			b = append(b, ':')
			b = strconv.AppendInt(b, s.counts[k], 10)
		}
		b = append(b, '}')
	}
	if len(s.events) > 0 {
		b = append(b, `,"events":[`...)
		for i := range s.events {
			if i > 0 {
				b = append(b, ',')
			}
			e := &s.events[i]
			b = append(b, `{"t_ns":`...)
			b = strconv.AppendInt(b, e.at.UnixNano(), 10)
			b = append(b, `,"name":`...)
			b = appendJSONString(b, e.name)
			if e.attr.Key != "" {
				b = append(b, `,"attrs":{`...)
				b = appendAttr(b, e.attr)
				b = append(b, '}')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if s.dropAttrs > 0 {
		b = append(b, `,"dropped_attrs":`...)
		b = strconv.AppendInt(b, s.dropAttrs, 10)
	}
	if s.dropEvents > 0 {
		b = append(b, `,"dropped_events":`...)
		b = strconv.AppendInt(b, s.dropEvents, 10)
	}
	b = append(b, '}', '\n')
	t.buf = b // keep the grown buffer for reuse
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.spans++
}

// appendAttr appends `"key":value` for one typed attribute.
func appendAttr(b []byte, a Attr) []byte {
	b = appendJSONString(b, a.Key)
	b = append(b, ':')
	switch a.Kind {
	case AttrString:
		b = appendJSONString(b, a.Str)
	case AttrInt:
		b = strconv.AppendInt(b, a.Num, 10)
	case AttrFloat:
		b = appendJSONFloat(b, a.F)
	case AttrBool:
		if a.Num != 0 {
			b = append(b, `true`...)
		} else {
			b = append(b, `false`...)
		}
	}
	return b
}

// appendJSONFloat renders a float as a JSON value; non-finite values
// (invalid JSON numbers) are stringified.
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1.797693134862315708e308 || v < -1.797693134862315708e308 {
		return appendJSONString(b, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string literal. ASCII fast
// path; control characters and JSON specials are escaped, valid UTF-8
// sequences pass through verbatim, and each byte of an invalid
// sequence becomes \ufffd, as encoding/json writes it — names and
// attributes can carry bytes from other processes (trace headers, a
// remote tier's run ID), and the line must stay valid UTF-8 JSON.
// Allocation-free.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		case c < utf8.RuneSelf:
			b = append(b, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, `\ufffd`...)
				continue
			}
			b = append(b, s[i:i+size]...)
			i += size - 1
		}
	}
	return append(b, '"')
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}
