package artifact_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/dataset"
	"auditherm/internal/fleet"
	"auditherm/internal/mat"
	"auditherm/internal/obs"
	"auditherm/internal/occupancy"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// codecCase is one codec's encoding of a valid value, and its decoder.
type codecCase struct {
	name    string
	encoded []byte
	decode  func([]byte) error
	// cells marks the frame codecs, whose envelope line is followed by
	// a binary cell block instead of ending the artifact.
	cells bool
}

func newCodecCase[T any](t *testing.T, c artifact.Codec[T], v T, cells bool) codecCase {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, v); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return codecCase{c.Name, buf.Bytes(), func(b []byte) error {
		_, err := c.Decode(bytes.NewReader(b))
		return err
	}, cells}
}

// TestDecodersRejectTrailingBytes: every stage codec decodes its value
// and nothing after it but whitespace. Before, the JSON codecs and the
// model codec decoded the first JSON value and ignored what followed,
// and a frame's or dataset's envelope line did the same before its
// line end.
func TestDecodersRejectTrailingBytes(t *testing.T) {
	frame := timeseries.NewFrame(timeseries.Grid{Start: time.Date(2013, 1, 31, 0, 0, 0, 0, time.UTC), Step: 15 * time.Minute, N: 2}, []string{"a", "b"})
	copy(frame.Values[0], []float64{21.5, math.NaN()})
	copy(frame.Values[1], []float64{20, 20.25})
	model := &sysid.Model{Order: sysid.FirstOrder, A: mat.NewDenseData(1, 1, []float64{0.9}), B: mat.NewDenseData(1, 1, []float64{0.1})}
	cases := []codecCase{
		newCodecCase(t, artifact.FrameCodec, frame, true),
		newCodecCase(t, artifact.DatasetCodec, &dataset.Dataset{Config: dataset.DefaultConfig(), Frame: frame, Truth: frame, Schedule: occupancy.NewSchedule(nil)}, true),
		newCodecCase(t, artifact.ClusterCodec, &artifact.ClusterArtifact{Sensors: []string{"s1", "s2"}, Assign: []int{0, 1}, K: 2, MeanC: []artifact.Float{21.5, 22}}, false),
		newCodecCase(t, artifact.SelectionCodec, &artifact.SelectionArtifact{Sensors: []string{"s1", "s2"}, K: 1, Methods: []artifact.MethodSelection{{Method: "SMS", Selected: [][]int{{1}}, Score: 0.2}}}, false),
		newCodecCase(t, pipeline.EvalCodec, &pipeline.EvalArtifact{Sensors: []string{"s1"}, PerSensorRMS: []artifact.Float{0.3}}, false),
		newCodecCase(t, pipeline.ControlCodec, &pipeline.ControlSummary{Controller: "deadband", ComfortRMS: 1.2}, false),
		newCodecCase(t, fleet.ReportCodec, &fleet.Report{Config: fleet.DefaultConfig()}, false),
		newCodecCase(t, artifact.ModelCodec, &artifact.SavedModel{Model: model}, false),
	}
	for _, c := range cases {
		enc := string(c.encoded)
		accept, reject := []string{enc}, []string{enc + "x"}
		if c.cells {
			line, cells, _ := strings.Cut(enc, "\n")
			accept = append(accept, line+" \t\n"+cells)
			reject = append(reject, line+" junk\n"+cells, line+"{}\n"+cells)
		} else {
			accept = append(accept, enc+" \t\n")
			reject = append(reject, enc+"trailing bytes", enc+"{}", enc+"\x00")
		}
		for _, b := range accept {
			if err := c.decode([]byte(b)); err != nil {
				t.Errorf("%s: %q: %v", c.name, b, err)
			}
		}
		for _, b := range reject {
			if err := c.decode([]byte(b)); err == nil {
				t.Errorf("%s decoded with bytes after its value: %q", c.name, b)
			}
		}
	}
}

// FuzzStageCodecDecode is FuzzModelCodecDecode for the JSON codecs of
// the evaluation, control and fleet stages; codec picks which one
// decodes data. Any input either fails to decode or decodes to a value
// whose encoding is a fixed point and that no longer decodes with a
// non-whitespace byte appended; nothing panics. The seed corpus holds
// each codec's encoding of a small fleet's real artifacts.
func FuzzStageCodecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, codec uint8, data []byte) {
		switch codec % 4 {
		case 0:
			artifact.CheckFixedPoint(t, pipeline.EvalCodec, data)
		case 1:
			artifact.CheckFixedPoint(t, pipeline.ControlCodec, data)
		case 2:
			artifact.CheckFixedPoint(t, fleet.BuildingCodec, data)
		default:
			artifact.CheckFixedPoint(t, fleet.ReportCodec, data)
		}
	})
}

// TestTornStageArtifactsRecompute publishes a one-building fleet's
// stage artifacts to a local store, then damages one in each way an OS
// crash or a bad disk can: cut to nothing, cut inside the payload or
// the trailer, the last 4 KiB zeroed, one bit flipped in the payload,
// the trailer's digest or its magic. Each damaged file must read as a
// miss on every path — Open, a read through Tiered, Stat — and be
// unlinked and counted each time; a warm rerun must find it torn too
// and recompute that stage to the same content digest, with every
// other stage a cache hit.
func TestTornStageArtifactsRecompute(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := fleet.DefaultConfig()
	cfg.N = 1
	cfg.Days = 4
	cfg.ControlDays = 1
	cfg.Seed = 5
	run := func() map[string]pipeline.Result {
		t.Helper()
		eng, err := pipeline.New(pipeline.Options{CacheDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := fleet.Run(ctx, eng, cfg); err != nil {
			t.Fatal(err)
		}
		out := map[string]pipeline.Result{}
		for _, r := range eng.Results() {
			out[r.Stage] = r
		}
		return out
	}
	cold := run()
	var stages []string
	for name, r := range cold {
		if r.Key != "" {
			stages = append(stages, name)
		}
	}
	sort.Strings(stages)

	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	torn := func() int64 { return obs.Default.CounterValue("auditherm_artifact_local_torn_total") }

	// Each damage gets the file's bytes and the payload length.
	damages := []struct {
		name   string
		damage func(b []byte, payload int) []byte
	}{
		{"zero length", func(b []byte, _ int) []byte { return b[:0] }},
		{"cut mid-payload", func(b []byte, payload int) []byte { return b[:payload/2] }},
		{"cut inside the trailer", func(b []byte, payload int) []byte { return b[:payload+(len(b)-payload)/2] }},
		{"last 4 KiB zeroed", func(b []byte, _ int) []byte {
			clear(b[max(0, len(b)-4096):])
			return b
		}},
		{"payload bit", func(b []byte, payload int) []byte { b[payload/2] ^= 0x04; return b }},
		{"digest bit", func(b []byte, _ int) []byte { b[len(b)-sha256.Size/2] ^= 0x80; return b }},
		{"magic bit", func(b []byte, _ int) []byte { b[len(b)-sha256.Size-1] ^= 0x01; return b }},
	}
	for i, d := range damages {
		stage := stages[i%len(stages)]
		want := cold[stage]
		path, err := st.Path(want.Key)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damaged := d.damage(append([]byte(nil), raw...), int(want.Bytes))
		tear := func() {
			t.Helper()
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		dropped := func(how string, before int64) {
			t.Helper()
			if got := torn(); got != before+1 {
				t.Errorf("%s, %s: torn counter moved %d, want 1", d.name, how, got-before)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s, %s: torn file still present (err=%v)", d.name, how, err)
			}
		}

		tear()
		before := torn()
		rc, err := st.Open(ctx, want.Key)
		if err == nil {
			_, err = io.ReadAll(rc)
			rc.Close()
		}
		if !artifact.IsNotFound(err) {
			t.Errorf("%s: Open+ReadAll of torn %s returned %v, want a not-found error", d.name, stage, err)
		}
		dropped("Open", before)

		tear()
		before = torn()
		mem := artifact.NewMem(1 << 30)
		if _, err := artifact.NewTiered(mem, st).Open(ctx, want.Key); !artifact.IsNotFound(err) {
			t.Errorf("%s: Tiered.Open of torn %s returned %v, want a not-found error", d.name, stage, err)
		}
		if _, _, ok := mem.GetBytes(want.Key); ok {
			t.Errorf("%s: Tiered promoted torn %s into mem", d.name, stage)
		}
		dropped("Tiered.Open", before)

		tear()
		before = torn()
		if info, ok, err := st.Stat(ctx, want.Key); err != nil || ok {
			t.Errorf("%s: Stat of torn %s: %+v ok=%v err=%v, want a miss", d.name, stage, info, ok, err)
		}
		dropped("Stat", before)

		tear()
		before = torn()
		warm := run()
		if got := torn(); got != before+1 {
			t.Errorf("%s: the warm rerun counted %d torn artifacts, want 1", d.name, got-before)
		}
		for name, r := range warm {
			switch {
			case r.Digest != cold[name].Digest:
				t.Errorf("%s: stage %s recomputed to %s, cold run %s", d.name, name, r.Digest.Short(), cold[name].Digest.Short())
			case name == stage && r.CacheHit:
				t.Errorf("%s: torn stage %s was a cache hit", d.name, name)
			case name != stage && r.Key != "" && !r.CacheHit:
				t.Errorf("%s: untouched stage %s recomputed", d.name, name)
			}
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, raw) {
			t.Errorf("%s: the rerun did not restore %s's file (err=%v)", d.name, stage, err)
		}
	}
}
