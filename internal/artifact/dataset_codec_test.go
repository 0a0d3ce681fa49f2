package artifact

import (
	"bytes"
	"math"
	"testing"
	"time"

	"auditherm/internal/dataset"
)

// TestDatasetCodecBitIdentical generates a short trace, round-trips it
// through the dataset codec and checks (a) the decoded dataset matches
// the original cell for cell and event for event, and (b) re-encoding
// the decoded dataset reproduces the original bytes exactly — the
// property warm-cache rehydration depends on.
func TestDatasetCodecBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	cfg := dataset.DefaultConfig()
	cfg.Days = 4
	cfg.SimStep = 2 * time.Minute
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := DatasetCodec.Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	got, err := DatasetCodec.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame.Grid != d.Frame.Grid {
		t.Errorf("frame grid %+v, want %+v", got.Frame.Grid, d.Frame.Grid)
	}
	if len(got.Sensors) != len(d.Sensors) {
		t.Fatalf("sensors %d, want %d", len(got.Sensors), len(d.Sensors))
	}
	for i := range d.Frame.Values {
		for k := range d.Frame.Values[i] {
			a, b := got.Frame.Values[i][k], d.Frame.Values[i][k]
			if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("frame cell [%d][%d]: %v vs %v", i, k, a, b)
			}
		}
	}
	ev0, ev1 := d.Schedule.Events(), got.Schedule.Events()
	if len(ev0) != len(ev1) {
		t.Fatalf("events %d, want %d", len(ev1), len(ev0))
	}
	for i := range ev0 {
		if !ev0[i].Start.Equal(ev1[i].Start) || ev0[i].Attendees != ev1[i].Attendees {
			t.Errorf("event %d differs: %+v vs %+v", i, ev1[i], ev0[i])
		}
	}
	// Schedule counts must agree at arbitrary instants.
	for _, dt := range []time.Duration{0, 10*time.Hour + 25*time.Minute, 36 * time.Hour, 60*time.Hour + 5*time.Minute} {
		at := cfg.Start.Add(dt)
		if a, b := d.Schedule.CountAt(at), got.Schedule.CountAt(at); a != b {
			t.Errorf("CountAt(%v): %d vs %d", at, b, a)
		}
	}

	buf.Reset()
	if err := DatasetCodec.Encode(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), first) {
		t.Error("re-encoded dataset differs from original encoding")
	}
}

// datasetSink keeps BenchmarkDatasetCodec's decodes live.
var datasetSink *dataset.Dataset

// BenchmarkDatasetCodec encodes and decodes the 4-day, 2-minute-step
// auditorium dataset of TestDatasetCodecBitIdentical and reports the
// encoded size in bytes.
func BenchmarkDatasetCodec(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Days = 4
	cfg.SimStep = 2 * time.Minute
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DatasetCodec.Encode(&buf, d); err != nil {
		b.Fatal(err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := DatasetCodec.Encode(&buf, d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if datasetSink, err = DatasetCodec.Decode(bytes.NewReader(encoded)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(encoded)), "bytes")
	})
}
