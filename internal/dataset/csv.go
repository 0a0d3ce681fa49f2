package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"auditherm/internal/timeseries"
)

// WriteCSV encodes a frame as CSV: a header of "time" plus channel
// names, then one row per grid step with RFC 3339 timestamps. Missing
// values are empty cells.
func WriteCSV(w io.Writer, f *timeseries.Frame) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time"}, f.Channels...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	row := make([]string, len(header))
	for k := 0; k < f.Grid.N; k++ {
		row[0] = f.Grid.Time(k).Format(time.RFC3339)
		for i := range f.Channels {
			v := f.Values[i][k]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				row[i+1] = ""
			} else {
				row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", k, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing CSV: %w", err)
	}
	return nil
}

// ReadCSV decodes a frame written by WriteCSV. The grid step is
// inferred from the first two timestamps; the rows must be evenly
// spaced. The step must be a whole number of seconds that divides
// 24 h (the mode windows cut the grid into days, and WriteCSV writes
// whole-second timestamps), the first timestamp must fall on a whole
// second, and channel names must be unique.
func ReadCSV(r io.Reader) (*timeseries.Frame, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(records) < 3 {
		return nil, fmt.Errorf("dataset: CSV needs a header and at least two rows, got %d records", len(records))
	}
	header := records[0]
	if len(header) < 2 || header[0] != "time" {
		return nil, fmt.Errorf("dataset: CSV header must start with \"time\", got %v", header)
	}
	channels := header[1:]
	seen := make(map[string]bool, len(channels))
	for _, c := range channels {
		if seen[c] {
			return nil, fmt.Errorf("dataset: CSV header repeats channel %q", c)
		}
		seen[c] = true
	}
	rows := records[1:]
	t0, err := time.Parse(time.RFC3339, rows[0][0])
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing first timestamp: %w", err)
	}
	t1, err := time.Parse(time.RFC3339, rows[1][0])
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing second timestamp: %w", err)
	}
	step := t1.Sub(t0)
	if step <= 0 {
		return nil, fmt.Errorf("dataset: non-increasing CSV timestamps %v, %v", t0, t1)
	}
	if step%time.Second != 0 || (24*time.Hour)%step != 0 {
		return nil, fmt.Errorf("dataset: CSV step %v must be a whole number of seconds that divides 24h", step)
	}
	if t0.Nanosecond() != 0 {
		return nil, fmt.Errorf("dataset: CSV starts at %q, not on a whole second", rows[0][0])
	}
	grid := timeseries.Grid{Start: t0, Step: step, N: len(rows)}
	f := timeseries.NewFrame(grid, channels)
	for k, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, want %d", k, len(rec), len(header))
		}
		at, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: parsing timestamp on row %d: %w", k, err)
		}
		if !at.Equal(grid.Time(k)) {
			return nil, fmt.Errorf("dataset: CSV row %d at %v breaks the regular grid (want %v)", k, at, grid.Time(k))
		}
		for i := range channels {
			cell := rec[i+1]
			if cell == "" {
				continue // stays NaN
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: parsing row %d channel %q: %w", k, channels[i], err)
			}
			f.Values[i][k] = v
		}
	}
	return f, nil
}
