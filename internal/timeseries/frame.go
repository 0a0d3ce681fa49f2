package timeseries

import (
	"fmt"
	"math"
)

// Frame is a multi-channel regular-grid view of a dataset: one row per
// channel, one column per grid step, with NaN marking missing values.
type Frame struct {
	Grid     Grid
	Channels []string    // channel names, one per row
	Values   [][]float64 // [channel][step]
}

// NewFrame allocates a frame for the given grid and channel names,
// initialized to NaN (all missing).
func NewFrame(g Grid, channels []string) *Frame {
	vals := make([][]float64, len(channels))
	for i := range vals {
		row := make([]float64, g.N)
		for k := range row {
			row[k] = math.NaN()
		}
		vals[i] = row
	}
	names := make([]string, len(channels))
	copy(names, channels)
	return &Frame{Grid: g, Channels: names, Values: vals}
}

// ChannelIndex returns the row index of the named channel.
func (f *Frame) ChannelIndex(name string) (int, error) {
	for i, c := range f.Channels {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("timeseries: frame has no channel %q", name)
}

// SetChannel replaces the named channel's values.
// It returns an error when the channel is unknown or the length differs
// from the grid.
func (f *Frame) SetChannel(name string, values []float64) error {
	i, err := f.ChannelIndex(name)
	if err != nil {
		return err
	}
	if len(values) != f.Grid.N {
		return fmt.Errorf("timeseries: channel %q values length %d, want %d", name, len(values), f.Grid.N)
	}
	copy(f.Values[i], values)
	return nil
}

// Channel returns the values of the named channel (aliased, not copied).
func (f *Frame) Channel(name string) ([]float64, error) {
	i, err := f.ChannelIndex(name)
	if err != nil {
		return nil, err
	}
	return f.Values[i], nil
}

// Valid returns the mask of steps where every channel is finite.
func (f *Frame) Valid() ([]bool, error) {
	return ValidMask(f.Values)
}

// ValidSegments returns the maximal runs of steps where every channel
// is finite and the run is at least minLen steps long.
func (f *Frame) ValidSegments(minLen int) ([]Segment, error) {
	mask, err := f.Valid()
	if err != nil {
		return nil, err
	}
	segs := Segments(mask)
	out := segs[:0]
	for _, s := range segs {
		if s.Len() >= minLen {
			out = append(out, s)
		}
	}
	return out, nil
}

// MissingFraction returns the fraction of (channel, step) cells that
// are not finite. An empty frame reports 0.
func (f *Frame) MissingFraction() float64 {
	var total, missing int
	for _, row := range f.Values {
		for _, v := range row {
			total++
			if math.IsNaN(v) || math.IsInf(v, 0) {
				missing++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}
