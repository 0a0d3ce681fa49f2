package obs

import (
	"bytes"
	"sync"
)

// TraceRing is an in-memory trace sink: an io.Writer that keeps the
// stream's first line (the trace meta) and its last n complete lines,
// so a live view of a long-running process (/debug/trace) renders its
// newest spans in bounded memory. A TraceFile's buffer flushes at any
// byte, so a line split across writes is reassembled. Safe for
// concurrent use.
type TraceRing struct {
	mu      sync.Mutex
	meta    []byte
	lines   [][]byte // slots reuse their buffers; unfilled ones are empty
	next    int      // slot the next line overwrites: the oldest once full
	partial []byte   // the line whose newline has not arrived yet
}

// NewTraceRing returns a ring that keeps the meta line and the last n
// lines after it (n < 1 keeps one).
func NewTraceRing(n int) *TraceRing {
	return &TraceRing{lines: make([][]byte, max(n, 1))}
}

// Write keeps every complete line of p and holds a trailing partial
// line until its newline arrives.
func (r *TraceRing) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			r.partial = append(r.partial, p...)
			break
		}
		r.partial = append(r.partial, p[:i+1]...)
		if r.meta == nil {
			r.meta = append([]byte(nil), r.partial...)
		} else {
			r.lines[r.next] = append(r.lines[r.next][:0], r.partial...)
			r.next = (r.next + 1) % len(r.lines)
		}
		r.partial = r.partial[:0]
		p = p[i+1:]
	}
	return n, nil
}

// Snapshot returns a copy of the kept trace: the meta line, then the
// kept lines oldest first. A partial line is left out.
func (r *TraceRing) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]byte(nil), r.meta...)
	for i := range r.lines {
		out = append(out, r.lines[(r.next+i)%len(r.lines)]...)
	}
	return out
}
