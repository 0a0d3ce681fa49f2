package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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
// Values are stored per channel as exact shortest-round-trip strings
// ("" for a missing cell) so decode(encode(f)) is bit-identical,
// including NaN placement.
// ---------------------------------------------------------------------

type frameJSON struct {
	Start    time.Time  `json:"start"`
	StepNS   int64      `json:"step_ns"`
	N        int        `json:"n"`
	Channels []string   `json:"channels"`
	Values   [][]string `json:"values"`
}

func frameToJSON(f *timeseries.Frame) frameJSON {
	out := frameJSON{
		Start:    f.Grid.Start,
		StepNS:   int64(f.Grid.Step),
		N:        f.Grid.N,
		Channels: append([]string(nil), f.Channels...),
		Values:   make([][]string, len(f.Values)),
	}
	for i, row := range f.Values {
		cells := make([]string, len(row))
		for k, v := range row {
			cells[k] = formatCell(v)
		}
		out.Values[i] = cells
	}
	return out
}

func frameFromJSON(j frameJSON) (*timeseries.Frame, error) {
	if j.StepNS <= 0 || j.N < 0 {
		return nil, fmt.Errorf("artifact: frame grid step %dns / n %d invalid", j.StepNS, j.N)
	}
	// Check the shape before allocating: the frame holds
	// channels x n cells, so n must be backed by cells in the payload.
	if len(j.Values) != len(j.Channels) {
		return nil, fmt.Errorf("artifact: frame has %d value rows for %d channels", len(j.Values), len(j.Channels))
	}
	for i, cells := range j.Values {
		if len(cells) != j.N {
			return nil, fmt.Errorf("artifact: frame channel %q has %d cells, want %d", j.Channels[i], len(cells), j.N)
		}
	}
	g := timeseries.Grid{Start: j.Start, Step: time.Duration(j.StepNS), N: j.N}
	f := timeseries.NewFrame(g, j.Channels)
	for i, cells := range j.Values {
		for k, cell := range cells {
			v, err := parseCell(cell)
			if err != nil {
				return nil, fmt.Errorf("artifact: frame channel %q cell %d: %w", j.Channels[i], k, err)
			}
			f.Values[i][k] = v
		}
	}
	return f, nil
}

// formatCell renders a float exactly; missing (NaN) becomes "".
func formatCell(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseCell inverts formatCell.
func parseCell(s string) (float64, error) {
	switch s {
	case "":
		return math.NaN(), nil
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// FrameCodec persists a timeseries.Frame bit-identically.
var FrameCodec = Codec[*timeseries.Frame]{
	Name:    "frame",
	Version: 1,
	Encode: func(w io.Writer, f *timeseries.Frame) error {
		return encodeEnvelope(w, "frame", 1, frameToJSON(f))
	},
	Decode: func(r io.Reader) (*timeseries.Frame, error) {
		raw, err := decodeEnvelope(r, "frame", 1)
		if err != nil {
			return nil, err
		}
		var j frameJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("artifact: decoding frame payload: %w", err)
		}
		return frameFromJSON(j)
	},
}

// ---------------------------------------------------------------------
// Dataset codec: the full generated trace — config, sensor layout,
// identification frame, ground truth, the event schedule and the
// backend outage plan — everything the experiments derive an Env from.
// ---------------------------------------------------------------------

type datasetJSON struct {
	Config  dataset.Config        `json:"config"`
	Sensors []building.SensorSpec `json:"sensors"`
	Frame   frameJSON             `json:"frame"`
	Truth   frameJSON             `json:"truth"`
	Events  []occupancy.Event     `json:"events"`
	Outages []sensornet.Outage    `json:"outages,omitempty"`
}

// DatasetCodec persists a dataset.Dataset bit-identically: a decoded
// dataset yields the same matrices, windows, usable-day splits and
// schedule counts as the freshly generated one.
var DatasetCodec = Codec[*dataset.Dataset]{
	Name:    "dataset",
	Version: 1,
	Encode: func(w io.Writer, d *dataset.Dataset) error {
		j := datasetJSON{
			Config:  d.Config,
			Sensors: d.Sensors,
			Frame:   frameToJSON(d.Frame),
			Truth:   frameToJSON(d.Truth),
			Outages: d.Outages,
		}
		if d.Schedule != nil {
			j.Events = d.Schedule.Events()
		}
		return encodeEnvelope(w, "dataset", 1, j)
	},
	Decode: func(r io.Reader) (*dataset.Dataset, error) {
		raw, err := decodeEnvelope(r, "dataset", 1)
		if err != nil {
			return nil, err
		}
		var j datasetJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("artifact: decoding dataset payload: %w", err)
		}
		frame, err := frameFromJSON(j.Frame)
		if err != nil {
			return nil, err
		}
		truth, err := frameFromJSON(j.Truth)
		if err != nil {
			return nil, err
		}
		return &dataset.Dataset{
			Config:   j.Config,
			Sensors:  j.Sensors,
			Frame:    frame,
			Truth:    truth,
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

// SelectionCodec persists a SelectionArtifact.
var SelectionCodec = JSONCodec[*SelectionArtifact]("selection", 1)
