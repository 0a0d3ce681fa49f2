package artifact

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// FuzzModelCodecDecode: any bytes either fail to decode as a model or
// decode to one whose encoding is a fixed point. Nothing panics. The
// seed corpus holds a real first- and second-order model and payloads
// whose dimensions overflow int.
func FuzzModelCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFixedPoint(t, ModelCodec, data)
	})
}

// FuzzFrameCodecDecode is FuzzModelCodecDecode for frames. The seed
// corpus holds a slice of a real frame with missing cells and payloads
// whose n is not backed by cells.
func FuzzFrameCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFixedPoint(t, FrameCodec, data)
	})
}

// FuzzDatasetCodecDecode is FuzzModelCodecDecode for datasets. The
// seed corpus holds a small hand-written dataset: one channel, a few
// cells including a missing one, one event and one outage.
func FuzzDatasetCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFixedPoint(t, DatasetCodec, data)
	})
}

// encodeEnvelopeRef is how encodeEnvelope wrote an envelope before it
// wrote the bytes directly: a json.Encoder over the envelope struct,
// which compacts and escapes the marshaled payload a second time.
func encodeEnvelopeRef(w io.Writer, name string, version int, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(envelope{Codec: name, Version: version, Data: raw})
}

// FuzzEncodeEnvelope requires encodeEnvelope to write encodeEnvelopeRef's
// bytes, or to fail where it fails, for any codec name, version, payload
// string and float: HTML characters, U+2028 and U+2029 and invalid UTF-8
// in either string, and NaN and ±Inf both as a Float and as a plain
// float64, which json.Marshal rejects.
func FuzzEncodeEnvelope(f *testing.F) {
	type payload struct {
		S     string   `json:"s"`
		Names []string `json:"names"`
		F     Float    `json:"f"`
		G     float64  `json:"g"`
	}
	f.Fuzz(func(t *testing.T, name string, version int, s string, x float64) {
		check := func(v payload) {
			var got, want bytes.Buffer
			err := encodeEnvelope(&got, name, version, v)
			wantErr := encodeEnvelopeRef(&want, name, version, v)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("err = %v, reference err = %v", err, wantErr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("envelope bytes differ:\n%q\n%q", got.Bytes(), want.Bytes())
			}
		}
		check(payload{S: s, Names: []string{name, s}, F: Float(x), G: x})
		check(payload{S: s, Names: []string{name, s}, F: Float(x)})
	})
}

// checkFixedPoint decodes data with c and, if that succeeds, requires
// Encode → Decode → Encode to reproduce the first encoding byte for
// byte.
func checkFixedPoint[T any](t *testing.T, c Codec[T], data []byte) {
	v, err := c.Decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first, second bytes.Buffer
	if err := c.Encode(&first, v); err != nil {
		t.Fatalf("encoding a decoded %s: %v", c.Name, err)
	}
	w, err := c.Decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decoding a re-encoded %s: %v\n%s", c.Name, err, first.Bytes())
	}
	if err := c.Encode(&second, w); err != nil {
		t.Fatalf("encoding a re-decoded %s: %v", c.Name, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s encoding is not a fixed point:\n%s\n%s", c.Name, first.Bytes(), second.Bytes())
	}
}

// TestFrameCodecRejectsUnbackedN: a frame's n must be backed by cells
// in the payload before anything is allocated. Before the check came
// first, n = 3e9 with one empty channel allocated 24 GB of NaN cells
// and n = 2^62 panicked in makeslice. DatasetCodec decodes its frame
// and truth the same way.
func TestFrameCodecRejectsUnbackedN(t *testing.T) {
	for _, n := range []string{"3000000000", "4611686018427387904"} {
		frame := `{"start":"2013-01-31T00:00:00Z","step_ns":900000000000,"n":` + n + `,"channels":["s1"],"values":[[]]}`
		for codec, payload := range map[string]string{
			"frame":   `{"codec":"frame","version":1,"data":` + frame + `}`,
			"dataset": `{"codec":"dataset","version":1,"data":{"frame":` + frame + `,"truth":` + frame + `}}`,
		} {
			var err error
			if codec == "frame" {
				_, err = FrameCodec.Decode(strings.NewReader(payload))
			} else {
				_, err = DatasetCodec.Decode(strings.NewReader(payload))
			}
			if err == nil || !strings.Contains(err.Error(), "has 0 cells, want "+n) {
				t.Errorf("%s with n=%s: err = %v, want a cell-count error", codec, n, err)
			}
		}
	}
}
