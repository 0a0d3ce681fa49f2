package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"auditherm/internal/timeseries"
)

// FuzzModelCodecDecode: any bytes either fail to decode as a model or
// decode to one whose encoding is a fixed point, and that no longer
// decodes with a non-whitespace byte appended. Nothing panics. The
// seed corpus holds a real first- and second-order model and payloads
// whose dimensions overflow int.
func FuzzModelCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckFixedPoint(t, ModelCodec, data)
	})
}

// FuzzFrameCodecDecode is FuzzModelCodecDecode for frames. The seed
// corpus holds a slice of a real frame with missing cells and payloads
// whose n is not backed by cells.
func FuzzFrameCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckFixedPoint(t, FrameCodec, data)
	})
}

// FuzzDatasetCodecDecode is FuzzModelCodecDecode for datasets. The
// seed corpus holds a small hand-written dataset: one channel, a few
// cells including a missing one, one event and one outage.
func FuzzDatasetCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckFixedPoint(t, DatasetCodec, data)
	})
}

// FuzzClusterCodecDecode: any bytes either fail to decode as a
// clustering or decode to one whose members, means and member sensor
// names can be read without panicking, whose encoding is a fixed point,
// and that no longer decodes with a non-whitespace byte appended. The seed corpus holds a real 3-cluster artifact and payloads
// with k out of range, an assignment out of range and missing means.
func FuzzClusterCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ca, err := ClusterCodec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c, ms := range ca.Members() {
			_ = ca.MeanC[c]
			for _, i := range ms {
				_ = ca.Sensors[i]
			}
		}
		CheckFixedPoint(t, ClusterCodec, data)
	})
}

// FuzzSelectionCodecDecode is FuzzClusterCodecDecode for selections:
// every selected index must name a sensor. The seed corpus holds a
// real selection study and payloads with negative and out-of-range
// indices.
func FuzzSelectionCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sa, err := SelectionCodec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, m := range sa.Methods {
			for _, cs := range m.Selected {
				for _, i := range cs {
					_ = sa.Sensors[i]
				}
			}
		}
		CheckFixedPoint(t, SelectionCodec, data)
	})
}

// TestClusterSelectionDecodeValidates: decoded clusterings and
// selections are checked before the select stage and the CLIs index
// with them. Without the check, "k":-1 and "k":4000000000000000000
// decoded without error and Members then panicked in makeslice.
func TestClusterSelectionDecodeValidates(t *testing.T) {
	cluster := func(data string) error {
		_, err := ClusterCodec.Decode(strings.NewReader(`{"codec":"cluster","version":1,"data":` + data + `}`))
		return err
	}
	selection := func(data string) error {
		_, err := SelectionCodec.Decode(strings.NewReader(`{"codec":"selection","version":1,"data":` + data + `}`))
		return err
	}
	for _, tc := range []struct {
		name   string
		decode func(string) error
		data   string
		want   string // "" accepts
	}{
		{"cluster ok", cluster, `{"sensors":["s1","s2","s3"],"assign":[1,0,1],"k":2,"mean_c":[21.5,22]}`, ""},
		{"cluster k -1", cluster, `{"sensors":["s1","s2"],"assign":[0,0],"k":-1}`, "cluster k -1 outside"},
		{"cluster k 4e18", cluster, `{"sensors":["s1","s2"],"assign":[0,0],"k":4000000000000000000}`, "cluster k 4000000000000000000 outside"},
		{"cluster k 0", cluster, `{"sensors":[],"assign":[],"k":0}`, "cluster k 0 outside"},
		{"cluster k above sensors", cluster, `{"sensors":["s1"],"assign":[0],"k":2,"mean_c":[1,2]}`, "cluster k 2 outside"},
		{"cluster assign short", cluster, `{"sensors":["s1","s2"],"assign":[0],"k":1,"mean_c":[1]}`, "1 assignments for 2 sensors"},
		{"cluster means short", cluster, `{"sensors":["s1","s2"],"assign":[0,1],"k":2,"mean_c":[1]}`, "1 means for k 2"},
		{"cluster assign out of range", cluster, `{"sensors":["s1","s2"],"assign":[0,2],"k":2,"mean_c":[1,2]}`, "sensor 1 assigned to cluster 2"},
		{"cluster assign negative", cluster, `{"sensors":["s1","s2"],"assign":[-1,0],"k":1,"mean_c":[1]}`, "sensor 0 assigned to cluster -1"},
		{"cluster null", cluster, `null`, "empty cluster payload"},
		{"selection ok", selection, `{"sensors":["s1","s2"],"k":1,"methods":[{"method":"SMS","selected":[[1]],"score":0.2}]}`, ""},
		{"selection index past sensors", selection, `{"sensors":["s1","s2"],"k":1,"methods":[{"method":"SMS","selected":[[2]],"score":0.2}]}`, "SMS selects sensor 2 of 2"},
		{"selection index negative", selection, `{"sensors":["s1","s2"],"k":1,"methods":[{"method":"GP","selected":[[0],[-1]],"score":0.2}]}`, "GP selects sensor -1 of 2"},
		{"selection null", selection, `null`, "empty selection payload"},
	} {
		err := tc.decode(tc.data)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
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

// CheckFixedPoint decodes data with c and, if that succeeds, requires
// a non-whitespace byte appended to data to fail the decode, and
// Encode → Decode → Encode to reproduce the first encoding byte for
// byte. It is exported for the stage codecs' fuzz target in the
// external test package.
func CheckFixedPoint[T any](t *testing.T, c Codec[T], data []byte) {
	v, err := c.Decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	for _, b := range []byte("x0}\x00") {
		if _, err := c.Decode(bytes.NewReader(append(data[:len(data):len(data)], b))); err == nil {
			t.Fatalf("%s decoded with %q appended", c.Name, b)
		}
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

// TestFrameCodecRejectsUnbackedN: a frame's shape must be backed by
// exactly its cells before anything is allocated. Before the check
// came first, n = 3e9 with one empty channel allocated 24 GB of NaN
// cells and n = 2^62 panicked in makeslice. Each case here is a short
// block, a trailing byte or a shape whose channels·n·8 overflows int,
// for the frame codec and for either frame of the dataset codec; a
// v1 payload stops at the version check.
func TestFrameCodecRejectsUnbackedN(t *testing.T) {
	head := func(n, channels string) string {
		return `{"start":"2013-01-31T00:00:00Z","step_ns":900000000000,"n":` + n + `,"channels":[` + channels + `]}`
	}
	ok := head("3", `"a","b"`) // 48 bytes of cells
	cells := func(n int) string { return strings.Repeat("\x00", n) }
	frame := func(h, block string) string {
		return `{"codec":"frame","version":2,"data":` + h + "}\n" + block
	}
	ds := func(f, tr, block string) string {
		return `{"codec":"dataset","version":2,"data":{"frame":` + f + `,"truth":` + tr + "}}\n" + block
	}
	for _, tc := range []struct {
		name, codec, payload, want string
	}{
		{"n=3e9", "frame", frame(head("3000000000", `"s1"`), ""), "frame needs 1 channels x 3000000000 steps of cells, 0 bytes left"},
		{"n=2^62", "frame", frame(head("4611686018427387904", `"s1"`), ""), "frame needs 1 channels x 4611686018427387904 steps"},
		{"8·2·2^59 overflows", "frame", frame(head("576460752303423488", `"a","b"`), cells(64)), "frame needs 2 channels x 576460752303423488 steps"},
		{"short block", "frame", frame(ok, cells(47)), "frame needs 2 channels x 3 steps of cells, 47 bytes left"},
		{"trailing byte", "frame", frame(ok, cells(49)), "1 bytes trail the frame cells"},
		{"v1", "frame", `{"codec":"frame","version":1,"data":` + head("1", `"s1"`) + "}\n", "frame format version 1, want 2"},
		{"n=3e9 frame", "dataset", ds(head("3000000000", `"s1"`), ok, cells(48)), "dataset frame needs 1 channels x 3000000000 steps"},
		{"n=2^62 truth", "dataset", ds(ok, head("4611686018427387904", `"s1"`), cells(48)), "dataset truth needs 1 channels x 4611686018427387904 steps"},
		{"overflowing truth", "dataset", ds(ok, head("576460752303423488", `"a","b"`), cells(96)), "dataset truth needs 2 channels x 576460752303423488 steps"},
		{"short frame block", "dataset", ds(ok, ok, cells(47)), "dataset frame needs 2 channels x 3 steps of cells, 47 bytes left"},
		{"short truth block", "dataset", ds(ok, ok, cells(95)), "dataset truth needs 2 channels x 3 steps of cells, 47 bytes left"},
		{"trailing byte", "dataset", ds(ok, ok, cells(97)), "1 bytes trail the dataset truth cells"},
		{"v1", "dataset", `{"codec":"dataset","version":1,"data":{}}` + "\n", "dataset format version 1, want 2"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if tc.codec == "frame" {
			_, err = FrameCodec.Decode(strings.NewReader(tc.payload))
		} else {
			_, err = DatasetCodec.Decode(strings.NewReader(tc.payload))
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: err = %v, want %q", tc.codec, tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s %s: decoding allocated %d bytes before failing", tc.codec, tc.name, grew)
		}
	}
}

// TestFrameCodecLayout pins frame@2's bytes: the envelope line, then
// the cells channel by channel as little-endian float64s, with a
// missing cell written as math.NaN() (0x7ff8000000000001), −0 and
// +Inf keeping their bits. A NaN with any other payload re-encodes as
// math.NaN().
func TestFrameCodecLayout(t *testing.T) {
	g := timeseries.Grid{Start: time.Date(2013, 1, 31, 0, 0, 0, 0, time.UTC), Step: 15 * time.Minute, N: 3}
	f := timeseries.NewFrame(g, []string{"a", "b"})
	copy(f.Values[0], []float64{21.5, math.NaN(), math.Copysign(0, -1)})
	copy(f.Values[1], []float64{math.Inf(1), 20.25, -1.5})
	const line = `{"codec":"frame","version":2,"data":{"start":"2013-01-31T00:00:00Z","step_ns":900000000000,"n":3,"channels":["a","b"]}}` + "\n"
	block, err := hex.DecodeString("" +
		"0000000000803540" + // 21.5
		"010000000000f87f" + // missing
		"0000000000000080" + // −0
		"000000000000f07f" + // +Inf
		"0000000000403440" + // 20.25
		"000000000000f8bf") // −1.5
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(line), block...)
	var buf bytes.Buffer
	if err := FrameCodec.Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame@2 bytes:\n%q\nwant\n%q", buf.Bytes(), want)
	}

	for _, nan := range []uint64{0x7ff8000000000001, 0x7ff8000000000abc, 0xfff8000000000000, 0x7ff0000000000001} {
		odd := append([]byte(line), block...)
		binary.LittleEndian.PutUint64(odd[len(line)+8:], nan)
		got, err := FrameCodec.Decode(bytes.NewReader(odd))
		if err != nil {
			t.Fatalf("NaN %#x: %v", nan, err)
		}
		if v := got.Values[0][1]; !math.IsNaN(v) {
			t.Fatalf("NaN %#x decoded as %v", nan, v)
		}
		if got.Grid != g || got.Channels[1] != "b" || math.Float64bits(got.Values[0][2]) != 1<<63 || !math.IsInf(got.Values[1][0], 1) {
			t.Fatalf("NaN %#x: decoded %+v", nan, got)
		}
		buf.Reset()
		if err := FrameCodec.Encode(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("NaN %#x re-encoded as\n%q\nwant\n%q", nan, buf.Bytes(), want)
		}
	}
}
