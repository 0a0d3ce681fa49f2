package building

import (
	"fmt"
	"time"
)

// Building is the common surface every thermal archetype presents to
// the rest of the stack: step dynamics driven by Inputs and a
// floor-plan temperature field probed at Points. *Simulator (the
// auditorium) and *zoneNet (the office and the residence) satisfy it.
type Building interface {
	// Step advances the model by dt under the given inputs.
	Step(dt time.Duration, in Inputs) error
	// TemperatureAt returns the air temperature at a floor-plan point.
	TemperatureAt(p Point) float64
	// TemperaturesAt evaluates TemperatureAt for every point in ps,
	// writing into dst when it has matching length.
	TemperaturesAt(ps []Point, dst []float64) []float64
	// MeanTemp returns the average zone temperature (the return-air
	// temperature seen by the plant).
	MeanTemp() float64
}

var (
	_ Building = (*Simulator)(nil)
	_ Building = (*zoneNet)(nil)
)

// Archetype names accepted by DefaultSpec and RandomSpec.
const (
	ArchetypeAuditorium = "auditorium"
	ArchetypeOffice     = "office"
	ArchetypeResidence  = "residence"
)

// Archetypes lists the known archetype names in canonical order.
func Archetypes() []string {
	return []string{ArchetypeAuditorium, ArchetypeOffice, ArchetypeResidence}
}

// Spec is the JSON-codable description of one concrete building:
// which archetype it is plus that archetype's validated config.
// Exactly one of the config pointers must be set, matching Archetype.
// The omitempty tags keep a spec's JSON (and therefore every pipeline
// cache key derived from it) free of the archetypes it does not use.
type Spec struct {
	Archetype  string           `json:"archetype"`
	Auditorium *Config          `json:"auditorium,omitempty"`
	Office     *OfficeConfig    `json:"office,omitempty"`
	Residence  *ResidenceConfig `json:"residence,omitempty"`
}

// Metadata summarizes a building for fleet reports.
type Metadata struct {
	Archetype string `json:"archetype"`
	// FloorArea is the conditioned floor area in m^2.
	FloorArea float64 `json:"floor_area_m2"`
	// Zones is the number of thermal zones (grid cells or lumped nodes).
	Zones int `json:"zones"`
	// Sensors is the installed sensor count, thermostats included.
	Sensors int `json:"sensors"`
	// DesignOccupancy is the expected peak occupant count.
	DesignOccupancy int `json:"design_occupancy"`
}

// DefaultSpec returns the tuned default spec for an archetype name.
func DefaultSpec(archetype string) (Spec, error) {
	switch archetype {
	case ArchetypeAuditorium:
		cfg := DefaultConfig()
		return Spec{Archetype: archetype, Auditorium: &cfg}, nil
	case ArchetypeOffice:
		cfg := DefaultOfficeConfig()
		return Spec{Archetype: archetype, Office: &cfg}, nil
	case ArchetypeResidence:
		cfg := DefaultResidenceConfig()
		return Spec{Archetype: archetype, Residence: &cfg}, nil
	default:
		return Spec{}, fmt.Errorf("building: unknown archetype %q (have %v)", archetype, Archetypes())
	}
}

// check requires the config pointer that Archetype names and no
// other, erroring on a missing or stray config or an unknown archetype.
func (sp Spec) check() error {
	type slot struct {
		name string
		set  bool
	}
	slots := []slot{
		{ArchetypeAuditorium, sp.Auditorium != nil},
		{ArchetypeOffice, sp.Office != nil},
		{ArchetypeResidence, sp.Residence != nil},
	}
	known := false
	for _, s := range slots {
		if s.name == sp.Archetype {
			known = true
			if !s.set {
				return fmt.Errorf("building: %s spec has no %s config", sp.Archetype, sp.Archetype)
			}
		} else if s.set {
			return fmt.Errorf("building: %s spec carries a stray %s config", sp.Archetype, s.name)
		}
	}
	if !known {
		return fmt.Errorf("building: unknown archetype %q (have %v)", sp.Archetype, Archetypes())
	}
	return nil
}

// Validate checks the spec's shape and delegates to the archetype
// config's Validate.
func (sp Spec) Validate() error {
	if err := sp.check(); err != nil {
		return err
	}
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return sp.Auditorium.Validate()
	case ArchetypeOffice:
		return sp.Office.Validate()
	default:
		return sp.Residence.Validate()
	}
}

// New validates the spec and constructs its Building: the
// auditorium's Simulator, or the zone network of an office or a
// residence.
func (sp Spec) New() (Building, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return NewSimulator(*sp.Auditorium)
	case ArchetypeOffice:
		return newZoneNet(sp.Office.network()), nil
	default:
		return newZoneNet(sp.Residence.network()), nil
	}
}

// Sensors returns the archetype's installed sensor deployment. The
// spec must be valid; an invalid spec yields nil.
func (sp Spec) Sensors() []SensorSpec {
	if sp.check() != nil {
		return nil
	}
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return AuditoriumSensors()
	case ArchetypeOffice:
		return sp.Office.Sensors()
	default:
		return sp.Residence.Sensors()
	}
}

// SensorsOf returns the sensor deployment of the building that spec
// describes: the archetype's (a valid spec; an invalid one yields
// nil), or the paper's 27-sensor auditorium layout when spec is nil,
// the default building.
func SensorsOf(spec *Spec) []SensorSpec {
	if spec == nil {
		return AuditoriumSensors()
	}
	return spec.Sensors()
}

// Dims returns the floor-plan extent (depth along X, width along Y) in
// meters, the domain over which Points are interpreted.
func (sp Spec) Dims() (depth, width float64) {
	if sp.check() != nil {
		return 0, 0
	}
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return RoomDepth, RoomWidth
	case ArchetypeOffice:
		return sp.Office.Depth, sp.Office.Width
	default:
		return sp.Residence.Dims()
	}
}

// Metadata summarizes the building for fleet reports.
func (sp Spec) Metadata() Metadata {
	if sp.check() != nil {
		return Metadata{Archetype: sp.Archetype}
	}
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return Metadata{
			Archetype:       sp.Archetype,
			FloorArea:       RoomDepth * RoomWidth,
			Zones:           sp.Auditorium.NX * sp.Auditorium.NY,
			Sensors:         len(AuditoriumSensors()),
			DesignOccupancy: 90,
		}
	case ArchetypeOffice:
		return sp.Office.Metadata()
	default:
		return sp.Residence.Metadata()
	}
}

// field is a row-major nx-by-ny grid of zone-center temperatures over
// a depth-by-width floor plan. Every archetype keeps its temperatures
// in one and serves the Building probes from it.
type field struct {
	nx, ny       int
	depth, width float64
	temps        []float64 // zone temperatures, row-major [ix*ny+iy]
}

// TemperatureAt returns the air temperature at a floor-plan point by
// bilinear interpolation between zone centers, clamped to the
// zone-center lattice (so at the walls, and along Y when ny is 1, it
// takes the nearest centers' values).
func (f *field) TemperatureAt(p Point) float64 {
	dx := f.depth / float64(f.nx)
	dy := f.width / float64(f.ny)
	fx := p.X/dx - 0.5
	fy := p.Y/dy - 0.5
	fx = minf(maxf(fx, 0), float64(f.nx-1))
	fy = minf(maxf(fy, 0), float64(f.ny-1))
	ix0 := int(fx)
	iy0 := int(fy)
	ix1 := ix0 + 1
	iy1 := iy0 + 1
	if ix1 > f.nx-1 {
		ix1 = f.nx - 1
	}
	if iy1 > f.ny-1 {
		iy1 = f.ny - 1
	}
	tx := fx - float64(ix0)
	ty := fy - float64(iy0)
	t00 := f.temps[ix0*f.ny+iy0]
	t01 := f.temps[ix0*f.ny+iy1]
	t10 := f.temps[ix1*f.ny+iy0]
	t11 := f.temps[ix1*f.ny+iy1]
	return (1-tx)*((1-ty)*t00+ty*t01) + tx*((1-ty)*t10+ty*t11)
}

// TemperaturesAt evaluates TemperatureAt for every point in ps,
// writing into dst when it has matching length (zero-alloc for hot
// monitoring loops that sample the truth field every control step) and
// allocating otherwise. It returns the filled slice.
func (f *field) TemperaturesAt(ps []Point, dst []float64) []float64 {
	if len(dst) != len(ps) {
		dst = make([]float64, len(ps))
	}
	for i, p := range ps {
		dst[i] = f.TemperatureAt(p)
	}
	return dst
}

// MeanTemp returns the average zone temperature (the return-air
// temperature seen by the plant).
func (f *field) MeanTemp() float64 {
	var sum float64
	for _, t := range f.temps {
		sum += t
	}
	return sum / float64(len(f.temps))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
