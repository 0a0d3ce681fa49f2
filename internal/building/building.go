// Package building is the ground-truth stand-in for the paper's
// physical auditorium: a zonal 2-D grid of air cells with inter-cell
// mixing, envelope and slab conduction, per-cell heat loads, and the
// 4-VAV / 2-outlet supply path whose per-outlet mixing plenum gives
// the greater-than-first-order response the paper observes.
//
// The simulator is deliberately low-order: the identified models only
// ever see sensor, HVAC, occupancy and weather traces, so what matters
// is that the room reproduces the paper's qualitative structure — a
// front-cool/back-warm gradient of roughly 2 degC under full
// occupancy, a mixing delay that makes second-order fits beat
// first-order ones, diurnal and occupancy-driven dynamics, and a slow
// seasonal drift that makes very long training horizons over-fit.
package building

import "fmt"

// Room geometry in meters. X runs front (stage, supply outlets,
// thermostats) to back; Y runs across the seating rows.
const (
	// RoomDepth is the front-to-back extent (X axis).
	RoomDepth = 20.0
	// RoomWidth is the side-to-side extent (Y axis).
	RoomWidth = 15.0
)

// Point is a location on the auditorium floor plan.
type Point struct {
	X float64 // meters from the front wall
	Y float64 // meters from the left wall
}

// SensorSpec describes one installed temperature sensor.
type SensorSpec struct {
	// ID is the paper-style sensor number (1-based).
	ID int
	// Pos is the sensor location on the floor plan.
	Pos Point
	// Thermostat marks the two wired HVAC thermostats; the rest are
	// wireless nodes.
	Thermostat bool
}

// Name returns the sensor's channel name ("s<ID>").
func (s SensorSpec) Name() string { return fmt.Sprintf("s%d", s.ID) }

// AuditoriumSensors returns the paper's deployment: 25 wireless
// sensors on a regular 5x5 grid over the seating area plus the 2 HVAC
// thermostats on the front wall, 27 sensors total.
func AuditoriumSensors() []SensorSpec {
	specs := make([]SensorSpec, 0, 27)
	xs := []float64{2, 6, 10, 14, 18}
	ys := []float64{1.5, 4.5, 7.5, 10.5, 13.5}
	id := 1
	for _, x := range xs {
		for _, y := range ys {
			specs = append(specs, SensorSpec{ID: id, Pos: Point{X: x, Y: y}})
			id++
		}
	}
	// The two wall thermostats sit near the front supply outlets, which
	// is exactly why the paper finds them unrepresentative of the back
	// rows.
	specs = append(specs,
		SensorSpec{ID: 26, Pos: Point{X: 0.6, Y: 4.5}, Thermostat: true},
		SensorSpec{ID: 27, Pos: Point{X: 0.6, Y: 10.5}, Thermostat: true},
	)
	return specs
}
