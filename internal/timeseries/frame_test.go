package timeseries

import (
	"math"
	"testing"
	"time"
)

func testFrame(t *testing.T) *Frame {
	t.Helper()
	g, err := NewGrid(t0, t0.Add(time.Hour), 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return NewFrame(g, []string{"a", "b"})
}

func TestNewFrameAllMissing(t *testing.T) {
	f := testFrame(t)
	if got := f.MissingFraction(); got != 1 {
		t.Errorf("MissingFraction = %v, want 1", got)
	}
}

func TestSetAndGetChannel(t *testing.T) {
	f := testFrame(t)
	if err := f.SetChannel("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	vals, err := f.Channel("a")
	if err != nil {
		t.Fatal(err)
	}
	if vals[2] != 3 {
		t.Errorf("channel a[2] = %v, want 3", vals[2])
	}
	if err := f.SetChannel("missing", []float64{1, 2, 3, 4}); err == nil {
		t.Error("unknown channel accepted")
	}
	if err := f.SetChannel("a", []float64{1}); err == nil {
		t.Error("short values accepted")
	}
	if _, err := f.Channel("nope"); err == nil {
		t.Error("unknown channel read accepted")
	}
}

func TestFrameValidSegments(t *testing.T) {
	f := testFrame(t)
	nan := math.NaN()
	if err := f.SetChannel("a", []float64{1, nan, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetChannel("b", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	segs, err := f.ValidSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != (Segment{0, 1}) || segs[1] != (Segment{2, 4}) {
		t.Errorf("segments = %v", segs)
	}
	// minLen filters the short run.
	segs, err = f.ValidSegments(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != (Segment{2, 4}) {
		t.Errorf("filtered segments = %v", segs)
	}
}

func TestMissingFraction(t *testing.T) {
	f := testFrame(t)
	if err := f.SetChannel("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := f.MissingFraction(); got != 0.5 {
		t.Errorf("MissingFraction = %v, want 0.5", got)
	}
}
