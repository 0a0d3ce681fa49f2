package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/dataset"
	"auditherm/internal/occupancy"
	"auditherm/internal/sensornet"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// ---------------------------------------------------------------------
// Frame codec: a multi-channel regular-grid series with missing cells.
// The envelope line carries the grid and channel names; the cells
// follow it as little-endian float64s, channel by channel, so
// decode(encode(f)) is bit-identical. Every NaN (a missing cell) is
// written as math.NaN(), so decode → encode is a fixed point.
// ---------------------------------------------------------------------

type frameHead struct {
	Start    time.Time `json:"start"`
	StepNS   int64     `json:"step_ns"`
	N        int       `json:"n"`
	Channels []string  `json:"channels"`
}

func headOf(f *timeseries.Frame) frameHead {
	return frameHead{Start: f.Grid.Start, StepNS: int64(f.Grid.Step), N: f.Grid.N, Channels: f.Channels}
}

// encodeFrames writes the envelope line for head, then every cell of
// frames in one Write: each Write costs Put a hash update and a syscall.
func encodeFrames(w io.Writer, name string, version int, head any, frames ...*timeseries.Frame) error {
	size := 0
	for _, f := range frames {
		size += 8 * len(f.Channels) * f.Grid.N
	}
	block := make([]byte, 0, size)
	for _, f := range frames {
		for _, row := range f.Values {
			for _, v := range row {
				if v != v {
					v = math.NaN()
				}
				block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
			}
		}
	}
	if err := encodeEnvelope(w, name, version, head); err != nil {
		return err
	}
	_, err := w.Write(block)
	return err
}

// cellBlock points at the head, inside an envelope payload, of a frame
// whose cells follow the envelope line; name labels it in errors.
type cellBlock struct {
	name string
	*frameHead
}

// decodeFrames reads what encodeFrames wrote: it checks the envelope
// line's codec and version, unmarshals its payload into head, and
// builds one frame per block from the bytes after the line. Every
// block's shape is checked, and the blocks must fill those bytes
// exactly, before any cell is allocated.
func decodeFrames(r io.Reader, name string, version int, head any, blocks ...cellBlock) ([]*timeseries.Frame, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: reading %s: %w", name, err)
	}
	line, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("artifact: %s envelope has no line end", name)
	}
	raw, err := parseEnvelope(line, name, version)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, head); err != nil {
		return nil, fmt.Errorf("artifact: decoding %s payload: %w", name, err)
	}
	left := len(rest)
	for _, b := range blocks {
		switch {
		case b.StepNS <= 0 || b.N < 0:
			return nil, fmt.Errorf("artifact: %s grid step %dns / n %d invalid", b.name, b.StepNS, b.N)
		case b.N > 0 && len(b.Channels) > left/8/b.N: // 8·channels·n > left, without overflow
			return nil, fmt.Errorf("artifact: %s needs %d channels x %d steps of cells, %d bytes left", b.name, len(b.Channels), b.N, left)
		}
		left -= 8 * len(b.Channels) * b.N
	}
	if left != 0 {
		return nil, fmt.Errorf("artifact: %d bytes trail the %s cells", left, blocks[len(blocks)-1].name)
	}
	frames := make([]*timeseries.Frame, len(blocks))
	for i, b := range blocks {
		frames[i] = timeseries.NewFrame(timeseries.Grid{Start: b.Start, Step: time.Duration(b.StepNS), N: b.N}, b.Channels)
		for _, row := range frames[i].Values {
			for k := range row {
				row[k] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
			}
		}
	}
	return frames, nil
}

// FrameCodec persists a timeseries.Frame bit-identically.
var FrameCodec = Codec[*timeseries.Frame]{
	Name:    "frame",
	Version: 2,
	Encode: func(w io.Writer, f *timeseries.Frame) error {
		return encodeFrames(w, "frame", 2, headOf(f), f)
	},
	Decode: func(r io.Reader) (*timeseries.Frame, error) {
		var h frameHead
		frames, err := decodeFrames(r, "frame", 2, &h, cellBlock{"frame", &h})
		if err != nil {
			return nil, err
		}
		return frames[0], nil
	},
}

// ---------------------------------------------------------------------
// Dataset codec: the full generated trace — config, sensor layout,
// identification frame, ground truth, the event schedule and the
// backend outage plan — everything the experiments derive an Env from.
// The envelope line carries all but the cells, which follow it as the
// frame's block and then the truth's.
// ---------------------------------------------------------------------

type datasetHead struct {
	Config  dataset.Config        `json:"config"`
	Sensors []building.SensorSpec `json:"sensors"`
	Frame   frameHead             `json:"frame"`
	Truth   frameHead             `json:"truth"`
	Events  []occupancy.Event     `json:"events"`
	Outages []sensornet.Outage    `json:"outages,omitempty"`
}

// DatasetCodec persists a dataset.Dataset bit-identically: a decoded
// dataset yields the same matrices, windows, usable-day splits and
// schedule counts as the freshly generated one.
var DatasetCodec = Codec[*dataset.Dataset]{
	Name:    "dataset",
	Version: 2,
	Encode: func(w io.Writer, d *dataset.Dataset) error {
		j := datasetHead{
			Config:  d.Config,
			Sensors: d.Sensors,
			Frame:   headOf(d.Frame),
			Truth:   headOf(d.Truth),
			Outages: d.Outages,
		}
		if d.Schedule != nil {
			j.Events = d.Schedule.Events()
		}
		return encodeFrames(w, "dataset", 2, j, d.Frame, d.Truth)
	},
	Decode: func(r io.Reader) (*dataset.Dataset, error) {
		var j datasetHead
		frames, err := decodeFrames(r, "dataset", 2, &j, cellBlock{"dataset frame", &j.Frame}, cellBlock{"dataset truth", &j.Truth})
		if err != nil {
			return nil, err
		}
		return &dataset.Dataset{
			Config:   j.Config,
			Sensors:  j.Sensors,
			Frame:    frames[0],
			Truth:    frames[1],
			Schedule: occupancy.NewSchedule(j.Events),
			Outages:  j.Outages,
		}, nil
	},
}

// ---------------------------------------------------------------------
// Model codec: a fitted thermal model plus its channel names,
// delegating to the stable sysid persistence format (the pattern this
// package generalizes).
// ---------------------------------------------------------------------

// SavedModel pairs an identified model with its channel names — the
// unit the sysid CLI persists and the pipeline caches.
type SavedModel struct {
	Model *sysid.Model
	Names *sysid.ModelNames
}

// ModelCodec persists a SavedModel through sysid.Save/Load. Version 2
// files carry the model's spectral radius.
var ModelCodec = Codec[*SavedModel]{
	Name:    "sysid-model",
	Version: 2,
	Encode: func(w io.Writer, m *SavedModel) error {
		if m == nil || m.Model == nil {
			return fmt.Errorf("artifact: nil model")
		}
		return m.Model.Save(w, m.Names)
	},
	Decode: func(r io.Reader) (*SavedModel, error) {
		m, names, err := sysid.Load(r)
		if err != nil {
			return nil, err
		}
		return &SavedModel{Model: m, Names: names}, nil
	},
}

// ---------------------------------------------------------------------
// Cluster codec: a spectral clustering outcome with everything the
// CLIs print — assignments, eigen-spectrum and per-cluster mean
// temperatures — so a warm run needs no trace matrix.
// ---------------------------------------------------------------------

// ClusterArtifact is the persisted form of one spectral clustering of
// named sensors.
type ClusterArtifact struct {
	// Sensors are the clustered channel names, index-aligned to Assign.
	Sensors []string `json:"sensors"`
	// Assign maps each sensor to a cluster in [0, K).
	Assign []int `json:"assign"`
	// K is the number of clusters used.
	K int `json:"k"`
	// Eigenvalues are the ascending Laplacian eigenvalues.
	Eigenvalues []Float `json:"eigenvalues"`
	// MeanC is each cluster's mean temperature over the clustered
	// trace (degC).
	MeanC []Float `json:"mean_c,omitempty"`
	// Steps is the number of gap-free steps clustered over.
	Steps int `json:"steps"`
}

// Members groups sensor indices by cluster, mirroring
// cluster.SpectralResult.Members.
func (c *ClusterArtifact) Members() [][]int {
	out := make([][]int, c.K)
	for i, a := range c.Assign {
		if a >= 0 && a < c.K {
			out[a] = append(out[a], i)
		}
	}
	return out
}

// Validate checks what Members and the cluster CLI rely on: 1 ≤ K ≤
// len(Sensors), one assignment in [0, K) per sensor and one mean per
// cluster.
func (c *ClusterArtifact) Validate() error {
	if c == nil {
		return fmt.Errorf("artifact: empty cluster payload")
	}
	if c.K < 1 || c.K > len(c.Sensors) {
		return fmt.Errorf("artifact: cluster k %d outside [1, %d sensors]", c.K, len(c.Sensors))
	}
	if len(c.Assign) != len(c.Sensors) || len(c.MeanC) != c.K {
		return fmt.Errorf("artifact: cluster has %d assignments for %d sensors and %d means for k %d", len(c.Assign), len(c.Sensors), len(c.MeanC), c.K)
	}
	for i, a := range c.Assign {
		if a < 0 || a >= c.K {
			return fmt.Errorf("artifact: sensor %d assigned to cluster %d of k %d", i, a, c.K)
		}
	}
	return nil
}

// ClusterCodec persists a ClusterArtifact.
var ClusterCodec = JSONCodec[*ClusterArtifact]("cluster", 1)

// ---------------------------------------------------------------------
// Selection codec: the representative-sensor comparison — per-method
// selections and held-out scores.
// ---------------------------------------------------------------------

// MethodSelection is one strategy's outcome.
type MethodSelection struct {
	// Method is the strategy label (SMS, SRS, RS, GP).
	Method string `json:"method"`
	// Selected holds the chosen global sensor indices per cluster
	// (empty for averaged random baselines that report only a score).
	Selected [][]int `json:"selected,omitempty"`
	// Score is the method's held-out 99th-percentile cluster-mean
	// error (degC); for randomized methods the mean over draws.
	Score Float `json:"score"`
	// Draws is the number of random draws averaged (0 = deterministic).
	Draws int `json:"draws,omitempty"`
}

// SelectionArtifact is the persisted form of one representative-sensor
// study over a clustering.
type SelectionArtifact struct {
	// Sensors are the channel names the indices refer to.
	Sensors []string `json:"sensors"`
	// K is the cluster count the selections target.
	K int `json:"k"`
	// Methods lists each strategy's outcome in presentation order.
	Methods []MethodSelection `json:"methods"`
	// TrainSteps and ValidSteps are the gap-free step counts used.
	TrainSteps int `json:"train_steps"`
	ValidSteps int `json:"valid_steps"`
}

// Validate checks that every selected index names one of Sensors.
func (s *SelectionArtifact) Validate() error {
	if s == nil {
		return fmt.Errorf("artifact: empty selection payload")
	}
	for _, m := range s.Methods {
		for _, cs := range m.Selected {
			for _, i := range cs {
				if i < 0 || i >= len(s.Sensors) {
					return fmt.Errorf("artifact: %s selects sensor %d of %d", m.Method, i, len(s.Sensors))
				}
			}
		}
	}
	return nil
}

// SelectionCodec persists a SelectionArtifact.
var SelectionCodec = JSONCodec[*SelectionArtifact]("selection", 1)
