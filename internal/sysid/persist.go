package sysid

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"auditherm/internal/mat"
)

// modelJSON is the stable on-disk representation of a Model. Matrices
// are stored row-major with explicit dimensions so a reader in any
// language can consume them.
type modelJSON struct {
	Version int       `json:"version"`
	Order   int       `json:"order"`
	Sensors int       `json:"sensors"`
	Inputs  int       `json:"inputs"`
	A       []float64 `json:"a"`
	A2      []float64 `json:"a2,omitempty"`
	B       []float64 `json:"b"`
	// SpectralRadius is the model's SpectralRadius estimate. Files
	// written before it was persisted lack it, and so does a model
	// whose estimate is not finite.
	SpectralRadius *float64    `json:"spectral_radius,omitempty"`
	Names          *ModelNames `json:"names,omitempty"`
}

// ModelNames optionally labels a persisted model's outputs and inputs.
type ModelNames struct {
	Sensors []string `json:"sensors,omitempty"`
	Inputs  []string `json:"inputs,omitempty"`
}

// persistVersion is bumped on breaking format changes.
const persistVersion = 1

// Save writes the model and its spectral radius as JSON. names may be
// nil.
func (m *Model) Save(w io.Writer, names *ModelNames) error {
	p := m.NumSensors()
	mi := m.NumInputs()
	if names != nil {
		if len(names.Sensors) != 0 && len(names.Sensors) != p {
			return fmt.Errorf("sysid: %d sensor names for %d sensors", len(names.Sensors), p)
		}
		if len(names.Inputs) != 0 && len(names.Inputs) != mi {
			return fmt.Errorf("sysid: %d input names for %d inputs", len(names.Inputs), mi)
		}
	}
	enc := modelJSON{
		Version: persistVersion,
		Order:   int(m.Order),
		Sensors: p,
		Inputs:  mi,
		A:       flatten(m.A),
		B:       flatten(m.B),
		Names:   names,
	}
	if m.Order == SecondOrder {
		enc.A2 = flatten(m.A2)
	}
	rho, err := m.SpectralRadius()
	if err != nil {
		return fmt.Errorf("sysid: encoding model: %w", err)
	}
	if !math.IsInf(rho, 0) {
		enc.SpectralRadius = &rho
	}
	e := json.NewEncoder(w)
	e.SetIndent("", " ")
	if err := e.Encode(enc); err != nil {
		return fmt.Errorf("sysid: encoding model: %w", err)
	}
	return nil
}

// Load reads a model written by Save, returning the model and any
// names stored with it. It reads r to EOF: anything but whitespace
// after the model is an error. A file without a spectral radius, or
// with a zero one, gets it computed here, once.
func Load(r io.Reader) (*Model, *ModelNames, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("sysid: reading model: %w", err)
	}
	var dec modelJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return nil, nil, fmt.Errorf("sysid: decoding model: %w", err)
	}
	if dec.Version != persistVersion {
		return nil, nil, fmt.Errorf("sysid: model format version %d, want %d", dec.Version, persistVersion)
	}
	order := Order(dec.Order)
	if order != FirstOrder && order != SecondOrder {
		return nil, nil, fmt.Errorf("sysid: persisted order %d unsupported", dec.Order)
	}
	p, mi := dec.Sensors, dec.Inputs
	if p <= 0 || mi <= 0 {
		return nil, nil, fmt.Errorf("sysid: persisted dimensions %dx%d invalid", p, mi)
	}
	if !holds(dec.A, p, p) {
		return nil, nil, fmt.Errorf("sysid: A has %d values, want %dx%d", len(dec.A), p, p)
	}
	if !holds(dec.B, p, mi) {
		return nil, nil, fmt.Errorf("sysid: B has %d values, want %dx%d", len(dec.B), p, mi)
	}
	m := &Model{
		Order: order,
		A:     mat.NewDenseData(p, p, append([]float64(nil), dec.A...)),
		B:     mat.NewDenseData(p, mi, append([]float64(nil), dec.B...)),
	}
	if order == SecondOrder {
		if !holds(dec.A2, p, p) {
			return nil, nil, fmt.Errorf("sysid: A2 has %d values, want %dx%d", len(dec.A2), p, p)
		}
		m.A2 = mat.NewDenseData(p, p, append([]float64(nil), dec.A2...))
	} else if len(dec.A2) != 0 {
		return nil, nil, fmt.Errorf("sysid: first-order model carries an A2 block")
	}
	if dec.Names != nil {
		if len(dec.Names.Sensors) != 0 && len(dec.Names.Sensors) != p {
			return nil, nil, fmt.Errorf("sysid: %d persisted sensor names for %d sensors", len(dec.Names.Sensors), p)
		}
		if len(dec.Names.Inputs) != 0 && len(dec.Names.Inputs) != mi {
			return nil, nil, fmt.Errorf("sysid: %d persisted input names for %d inputs", len(dec.Names.Inputs), mi)
		}
	}
	switch r := dec.SpectralRadius; {
	case r != nil && *r < 0:
		return nil, nil, fmt.Errorf("sysid: persisted spectral radius %v negative", *r)
	case r != nil && *r > 0:
		m.rho = *r
	default:
		// A persisted 0 reads as unrecorded (see Model.rho), so it is
		// computed here too; otherwise dynamics whose radius cannot be
		// computed would load and then fail to save.
		rho, err := m.spectralRadius()
		if err != nil {
			return nil, nil, fmt.Errorf("sysid: persisted dynamics: %w", err)
		}
		m.rho = rho
	}
	return m, dec.Names, nil
}

// holds reports whether v has exactly r*c values for r, c > 0. It
// divides instead of multiplying, so dimensions whose product wraps
// around int cannot match a short slice.
func holds(v []float64, r, c int) bool {
	return len(v)%r == 0 && len(v)/r == c
}

// flatten copies a matrix row-major.
func flatten(m *mat.Dense) []float64 {
	r, c := m.Dims()
	out := make([]float64, 0, r*c)
	for i := 0; i < r; i++ {
		out = append(out, m.RawRow(i)...)
	}
	return out
}
