package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"unicode/utf8"
)

// FuzzParseTraceRef: the trace header is the daemon's untrusted input.
// An accepted ref has a 1-64-byte printable-ASCII run id with no '/'
// and a positive span id, and re-parses from its wire form to itself.
// The seed corpus holds well-formed refs and a run id of invalid UTF-8.
func FuzzParseTraceRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseTraceRef(s)
		if err != nil {
			return
		}
		if n := len(ref.RunID); n < 1 || n > maxTraceRunIDLen {
			t.Fatalf("ParseTraceRef(%q) accepted a %d-byte run id", s, n)
		}
		for i := 0; i < len(ref.RunID); i++ {
			if c := ref.RunID[i]; c < 0x21 || c > 0x7e || c == '/' {
				t.Fatalf("ParseTraceRef(%q) accepted run id byte %#x", s, c)
			}
		}
		if ref.Span == 0 {
			t.Fatalf("ParseTraceRef(%q) accepted span 0", s)
		}
		again, err := ParseTraceRef(ref.String())
		if err != nil || again != ref {
			t.Fatalf("%q -> %+v -> %q -> %+v, %v", s, ref, ref.String(), again, err)
		}
	})
}

// FuzzTraceEncode: whatever bytes a span's name, attribute, counter
// key, event and error carry, its exported line is valid UTF-8 and
// valid JSON, and decodes to the same strings as encoding/json's own
// round trip. The seed corpus holds escapes, control bytes and
// invalid UTF-8.
func FuzzTraceEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, attr, event, errMsg string) {
		var buf bytes.Buffer
		tf := NewTraceWriter(&buf, "fuzz", "fuzz")
		sp := newSpan(name)
		sp.SetSink(tf)
		sp.SetAttr(String("a", attr))
		sp.SetAttr(Int("k:"+attr, 1))
		sp.SetCount("c:"+attr, 7)
		sp.EventAttr(event, String("e", event))
		sp.SetError(errors.New(errMsg))
		sp.End()
		if err := tf.Flush(); err != nil {
			t.Fatal(err)
		}
		_, line, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
		if !utf8.Valid(line) || !json.Valid(line) {
			t.Fatalf("invalid line: %q", line)
		}
		var got struct {
			Name   string
			Error  string
			Attrs  map[string]any
			Counts map[string]int64
			Events []struct {
				Name  string
				Attrs map[string]any
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Name != roundTrip(t, name) || got.Error != roundTrip(t, errMsg) {
			t.Errorf("name/error = %q/%q, want %q/%q", got.Name, got.Error, roundTrip(t, name), roundTrip(t, errMsg))
		}
		if got.Attrs["a"] != roundTrip(t, attr) || got.Attrs[roundTrip(t, "k:"+attr)] != 1.0 {
			t.Errorf("attrs = %v, want a=%q", got.Attrs, roundTrip(t, attr))
		}
		if got.Counts[roundTrip(t, "c:"+attr)] != 7 {
			t.Errorf("counts = %v", got.Counts)
		}
		if len(got.Events) != 1 || got.Events[0].Name != roundTrip(t, event) || got.Events[0].Attrs["e"] != roundTrip(t, event) {
			t.Errorf("events = %+v, want %q", got.Events, roundTrip(t, event))
		}
	})
}

// roundTrip returns s as encoding/json marshals and decodes it.
func roundTrip(t *testing.T, s string) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
