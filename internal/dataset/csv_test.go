package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"auditherm/internal/timeseries"
)

func csvTestFrame(t *testing.T) *timeseries.Frame {
	t.Helper()
	g, err := timeseries.NewGrid(
		time.Date(2013, time.January, 31, 0, 0, 0, 0, time.UTC),
		time.Date(2013, time.January, 31, 1, 0, 0, 0, time.UTC),
		15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := timeseries.NewFrame(g, []string{"s1", "occ"})
	if err := f.SetChannel("s1", []float64{20.5, math.NaN(), 21, 21.25}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetChannel("occ", []float64{0, 5, 10, 0}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCSVRoundTrip(t *testing.T) {
	f := csvTestFrame(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Grid.N != f.Grid.N || got.Grid.Step != f.Grid.Step || !got.Grid.Start.Equal(f.Grid.Start) {
		t.Fatalf("grid mismatch: %+v vs %+v", got.Grid, f.Grid)
	}
	if len(got.Channels) != 2 || got.Channels[0] != "s1" || got.Channels[1] != "occ" {
		t.Fatalf("channels = %v", got.Channels)
	}
	for i := range f.Values {
		for k := range f.Values[i] {
			a, b := f.Values[i][k], got.Values[i][k]
			if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
				t.Errorf("channel %d step %d: %v vs %v", i, k, a, b)
			}
		}
	}
}

func TestCSVMissingCellsEmpty(t *testing.T) {
	f := csvTestFrame(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Second data row has the NaN.
	if !strings.Contains(lines[2], ",,") && !strings.HasSuffix(lines[2], ",") {
		t.Errorf("NaN row %q has no empty cell", lines[2])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring the error must carry, if any
	}{
		{"empty", "", ""},
		{"header only", "time,s1\n", ""},
		{"one row", "time,s1\n2013-01-31T00:00:00Z,20\n", ""},
		{"bad header", "when,s1\n2013-01-31T00:00:00Z,20\n2013-01-31T00:15:00Z,21\n", ""},
		{"bad timestamp", "time,s1\nnope,20\n2013-01-31T00:15:00Z,21\n", ""},
		{"reversed timestamps", "time,s1\n2013-01-31T00:15:00Z,20\n2013-01-31T00:00:00Z,21\n", ""},
		{"irregular grid", "time,s1\n2013-01-31T00:00:00Z,20\n2013-01-31T00:15:00Z,21\n2013-01-31T00:35:00Z,22\n", ""},
		{"bad float", "time,s1\n2013-01-31T00:00:00Z,x\n2013-01-31T00:15:00Z,21\n", ""},
		// A step longer than a day left GridModeWindows zero steps per
		// day (an integer divide by zero); one that does not divide a
		// day made every "day" of the mode windows the wrong length; a
		// sub-second one came back from WriteCSV as duplicate
		// timestamps; a repeated name shadowed its second column.
		{"48h step", "time,s1\n2013-01-31T00:00:00Z,20\n2013-02-02T00:00:00Z,21\n2013-02-04T00:00:00Z,22\n", "step 48h0m0s"},
		{"7m step", "time,s1\n2013-01-31T00:00:00Z,20\n2013-01-31T00:07:00Z,21\n", "step 7m0s"},
		{"500ms step", "time,s1\n2013-01-31T00:00:00Z,20\n2013-01-31T00:00:00.5Z,21\n", "step 500ms"},
		{"fractional start", "time,s1\n2013-01-31T00:00:00.5Z,20\n2013-01-31T00:15:00.5Z,21\n", "2013-01-31T00:00:00.5Z"},
		{"duplicate channel", "time,s1,s1\n2013-01-31T00:00:00Z,20,30\n2013-01-31T00:15:00Z,21,31\n", `channel "s1"`},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

func TestCSVGeneratedDataset(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 2
	d := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d.Frame); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MissingFraction() != d.Frame.MissingFraction() {
		t.Errorf("missing fraction changed: %v vs %v", got.MissingFraction(), d.Frame.MissingFraction())
	}
}

// FuzzReadCSV: any bytes either fail ReadCSV or decode to a frame that
// WriteCSV → ReadCSV → WriteCSV reproduces byte for byte, and that
// FrameMatrices and both modes' GridModeWindows (the readers behind
// the sysid, cluster and select stages) take without panicking.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteCSV(&first, fr); err != nil {
			t.Fatalf("writing a read frame: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading a written frame: %v\n%s", err, first.Bytes())
		}
		if err := WriteCSV(&second, back); err != nil {
			t.Fatalf("writing a re-read frame: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("CSV is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		FrameMatrices(fr) // an error is fine; a panic is not
		for _, mode := range []Mode{Occupied, Unoccupied} {
			for _, w := range GridModeWindows(fr.Grid, mode, 6, 21) {
				if w.Start < 0 || w.Start > w.End || w.End > fr.Grid.N {
					t.Fatalf("%v window [%d, %d) outside a %d-step grid", mode, w.Start, w.End, fr.Grid.N)
				}
			}
		}
	})
}
