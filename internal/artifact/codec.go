package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Codec is a versioned, self-describing encoder/decoder for one
// artifact type. Name and Version participate in the cache key, so
// bumping Version on a breaking format change invalidates every
// artifact written under the old layout without touching the store.
type Codec[T any] struct {
	// Name identifies the artifact type ("frame", "dataset", ...).
	Name string
	// Version is bumped on breaking format changes.
	Version int
	// Encode writes v; the bytes must be deterministic for a given v so
	// cache hits rehydrate bit-identically.
	Encode func(w io.Writer, v T) error
	// Decode reads a value written by Encode.
	Decode func(r io.Reader) (T, error)
}

// envelope is the common JSON wrapper every codec writes: the codec
// identity up front so a decoder can reject foreign or stale formats
// before touching the payload.
type envelope struct {
	Codec   string          `json:"codec"`
	Version int             `json:"version"`
	Data    json.RawMessage `json:"data"`
}

// encodeEnvelope writes {codec, version, data} as deterministic JSON,
// followed by a newline. These are the bytes a json.Encoder writes for
// an envelope holding the marshaled payload, without its second pass
// over them: json.Marshal's output is already compact and already
// escapes <, >, &, U+2028 and U+2029, which is all that pass would
// change. The payload goes to w as json.Marshal returned it, between
// the envelope's head and its closing brace, so it is not copied.
func encodeEnvelope(w io.Writer, name string, version int, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("artifact: encoding %s payload: %w", name, err)
	}
	codec, err := json.Marshal(name)
	if err != nil {
		return fmt.Errorf("artifact: encoding codec name %q: %w", name, err)
	}
	head := append(append([]byte(`{"codec":`), codec...), `,"version":`...)
	head = append(strconv.AppendInt(head, int64(version), 10), `,"data":`...)
	for _, b := range [][]byte{head, raw, []byte("}\n")} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readAll reads r to EOF, where the local store checks an artifact's
// digest trailer. A reader that reports its Size — the local store's
// payload reader, the bytes.Reader the memory tier hands out — gets its
// buffer allocated once instead of grown by reallocation.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if s, ok := r.(interface{ Size() int64 }); ok && s.Size() >= 0 && s.Size() < math.MaxInt32 {
		buf.Grow(int(s.Size()) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeEnvelope reads r to EOF and parses it as one envelope.
func decodeEnvelope(r io.Reader, name string, version int) (json.RawMessage, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: reading %s: %w", name, err)
	}
	return parseEnvelope(data, name, version)
}

// parseEnvelope parses data as one envelope, with nothing but
// whitespace after it, and checks its identity.
func parseEnvelope(data []byte, name string, version int) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("artifact: decoding %s envelope: %w", name, err)
	}
	if env.Codec != name {
		return nil, fmt.Errorf("artifact: codec %q, want %q", env.Codec, name)
	}
	if env.Version != version {
		return nil, fmt.Errorf("artifact: %s format version %d, want %d", name, env.Version, version)
	}
	return env.Data, nil
}

// JSONCodec builds a codec for any plain JSON-round-trippable type
// (no NaN/Inf floats unless wrapped in Float). The payload is wrapped
// in the standard envelope. When T has a Validate() error method,
// Decode calls it and returns its error instead of the value: decoded
// bytes may come from another process, and consumers index with them.
func JSONCodec[T any](name string, version int) Codec[T] {
	return Codec[T]{
		Name:    name,
		Version: version,
		Encode: func(w io.Writer, v T) error {
			return encodeEnvelope(w, name, version, v)
		},
		Decode: func(r io.Reader) (T, error) {
			var v, zero T
			raw, err := decodeEnvelope(r, name, version)
			if err != nil {
				return zero, err
			}
			if err := json.Unmarshal(raw, &v); err != nil {
				return zero, fmt.Errorf("artifact: decoding %s payload: %w", name, err)
			}
			if c, ok := any(v).(interface{ Validate() error }); ok {
				if err := c.Validate(); err != nil {
					return zero, err
				}
			}
			return v, nil
		},
	}
}

// Float is a float64 that JSON-round-trips exactly: finite values are
// emitted with strconv's shortest exact formatting (which encoding/json
// also uses), while NaN and ±Inf — which plain JSON rejects — are
// emitted as quoted strings. Cache artifacts use it anywhere a missing
// value can appear (per-sensor RMS, eigenvalues, selection scores).
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		switch s {
		case `"NaN"`:
			*f = Float(math.NaN())
			return nil
		case `"+Inf"`, `"Inf"`:
			*f = Float(math.Inf(1))
			return nil
		case `"-Inf"`:
			*f = Float(math.Inf(-1))
			return nil
		}
		return fmt.Errorf("artifact: invalid float literal %s", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("artifact: invalid float %s: %w", s, err)
	}
	*f = Float(v)
	return nil
}

// Floats converts a []float64 to its exact-round-trip form.
func Floats(v []float64) []Float {
	out := make([]Float, len(v))
	for i, x := range v {
		out[i] = Float(x)
	}
	return out
}

// Float64s converts back to []float64.
func Float64s(v []Float) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
