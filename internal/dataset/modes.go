package dataset

import (
	"fmt"
	"time"

	"auditherm/internal/mat"
	"auditherm/internal/timeseries"
)

// Mode partitions the trace by HVAC operating mode, following the
// paper: occupied mode (HVAC actively controlling, 06:00-21:00) and
// unoccupied mode (minimum ventilation, 21:00-06:00).
type Mode int

// The two operating modes.
const (
	Occupied Mode = iota
	Unoccupied
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Occupied:
		return "occupied"
	case Unoccupied:
		return "unoccupied"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// stepsPerDay returns the number of grid steps in a day.
func (d *Dataset) stepsPerDay() int {
	return int(24 * time.Hour / d.Config.GridStep)
}

// NumDays returns the number of whole days in the trace.
func (d *Dataset) NumDays() int { return d.Config.Days }

// Window returns the grid segment of the given mode on the given day
// (0-based). The unoccupied window of day i spans 21:00 of day i to
// 06:00 of day i+1 and is clipped to the grid for the last day.
func (d *Dataset) Window(mode Mode, day int) (timeseries.Segment, error) {
	if day < 0 || day >= d.Config.Days {
		return timeseries.Segment{}, fmt.Errorf("dataset: day %d outside trace of %d days", day, d.Config.Days)
	}
	spd := d.stepsPerDay()
	onStep := d.Config.HVAC.OnHour * spd / 24
	offStep := d.Config.HVAC.OffHour * spd / 24
	var seg timeseries.Segment
	switch mode {
	case Occupied:
		seg = timeseries.Segment{Start: day*spd + onStep, End: day*spd + offStep}
	case Unoccupied:
		seg = timeseries.Segment{Start: day*spd + offStep, End: (day+1)*spd + onStep}
	default:
		return timeseries.Segment{}, fmt.Errorf("dataset: unknown mode %v", mode)
	}
	if seg.End > d.Frame.Grid.N {
		seg.End = d.Frame.Grid.N
	}
	return seg, nil
}

// coreChannels returns the channels whose validity defines a usable
// step: every temperature sensor plus every model input.
func (d *Dataset) coreChannels() []string {
	return append(append([]string{}, d.SensorNames()...), d.InputNames()...)
}

// missingFraction returns the fraction of steps in seg where any core
// channel is missing.
func (d *Dataset) missingFraction(seg timeseries.Segment) (float64, error) {
	if seg.Len() == 0 {
		return 1, nil
	}
	var rows [][]float64
	for _, name := range d.coreChannels() {
		vals, err := d.Frame.Channel(name)
		if err != nil {
			return 0, err
		}
		rows = append(rows, vals[seg.Start:seg.End])
	}
	mask, err := timeseries.ValidMask(rows)
	if err != nil {
		return 0, err
	}
	missing := 0
	for _, ok := range mask {
		if !ok {
			missing++
		}
	}
	return float64(missing) / float64(len(mask)), nil
}

// UsableDays returns the days whose window for the given mode has at
// most maxMissing fraction of missing steps. The paper keeps 64 of its
// 98 days this way.
func (d *Dataset) UsableDays(mode Mode, maxMissing float64) ([]int, error) {
	var out []int
	for day := 0; day < d.Config.Days; day++ {
		seg, err := d.Window(mode, day)
		if err != nil {
			return nil, err
		}
		frac, err := d.missingFraction(seg)
		if err != nil {
			return nil, err
		}
		if frac <= maxMissing {
			out = append(out, day)
		}
	}
	return out, nil
}

// SplitDays splits a day list into train and validation halves in
// temporal order (first half trains), as in the paper's 32/32 split.
func SplitDays(days []int) (train, valid []int) {
	half := len(days) / 2
	train = append(train, days[:half]...)
	valid = append(valid, days[half:]...)
	return train, valid
}

// Windows returns the mode windows of the given days.
func (d *Dataset) Windows(mode Mode, days []int) ([]timeseries.Segment, error) {
	out := make([]timeseries.Segment, 0, len(days))
	for _, day := range days {
		seg, err := d.Window(mode, day)
		if err != nil {
			return nil, err
		}
		out = append(out, seg)
	}
	return out, nil
}

// ChannelMatrix assembles the named channels into a rows-by-steps
// matrix over the full grid (NaN marks gaps).
func (d *Dataset) ChannelMatrix(names []string) (*mat.Dense, error) {
	out := mat.NewDense(len(names), d.Frame.Grid.N)
	for i, name := range names {
		vals, err := d.Frame.Channel(name)
		if err != nil {
			return nil, err
		}
		out.SetRow(i, vals)
	}
	return out, nil
}

// TempsMatrix returns the sensor temperatures (p x N).
func (d *Dataset) TempsMatrix() (*mat.Dense, error) {
	return d.ChannelMatrix(d.SensorNames())
}

// InputsMatrix returns the model inputs (m x N) in the paper's order:
// VAV flows, occupancy, light, ambient.
func (d *Dataset) InputsMatrix() (*mat.Dense, error) {
	return d.ChannelMatrix(d.InputNames())
}

// TruthMatrix returns the noise-free ground-truth temperatures (p x N).
func (d *Dataset) TruthMatrix() (*mat.Dense, error) {
	out := mat.NewDense(len(d.Sensors), d.Truth.Grid.N)
	for i := range d.Sensors {
		out.SetRow(i, d.Truth.Values[i])
	}
	return out, nil
}

// ValidColumns returns the mask of grid steps where every core channel
// is present.
func (d *Dataset) ValidColumns() ([]bool, error) {
	var rows [][]float64
	for _, name := range d.coreChannels() {
		vals, err := d.Frame.Channel(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, vals)
	}
	return timeseries.ValidMask(rows)
}

// CollectValid gathers, for the given windows, the values of matrix m
// (rows-by-grid) at steps where mask is true, concatenated column-wise.
func CollectValid(m *mat.Dense, mask []bool, windows []timeseries.Segment) *mat.Dense {
	rows, _ := m.Dims()
	var cols []int
	for _, w := range windows {
		for k := w.Start; k < w.End; k++ {
			if mask[k] {
				cols = append(cols, k)
			}
		}
	}
	out := mat.NewDense(rows, len(cols))
	for i := 0; i < rows; i++ {
		src := m.RawRow(i)
		dst := out.RawRow(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}
