package building

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

// refSim is the auditorium as it was before NewSimulator compiled the
// grid into a stencil: every substep rebuilds each cell's conductances
// from the seat mask, the envelope share and the outlet map, one edge
// at a time, and relaxes it with its own exp. It is the oracle the
// compiled substep must match bit for bit.
type refSim struct {
	cfg Config

	nx, ny  int
	temps   []float64
	scratch []float64
	outlet  []float64

	cellCap   float64
	envUA     []float64
	groundUA  float64
	seatCells []int
	seatMask  []bool
	outletOf  []int

	elapsed float64
}

func newRefSim(cfg Config) *refSim {
	n := cfg.NX * cfg.NY
	s := &refSim{
		cfg:     cfg,
		nx:      cfg.NX,
		ny:      cfg.NY,
		temps:   make([]float64, n),
		scratch: make([]float64, n),
		outlet:  make([]float64, cfg.NumOutlets),
		envUA:   make([]float64, n),
	}
	airMass := RoomDepth * RoomWidth * cfg.Height * airDensity
	cellMass := airMass / float64(n) * cfg.ThermalMassFactor
	s.cellCap = cellMass * airCp
	s.groundUA = cfg.GroundUA / float64(n)
	perimeter := 0
	for ix := 0; ix < s.nx; ix++ {
		for iy := 0; iy < s.ny; iy++ {
			if ix == 0 || ix == s.nx-1 || iy == 0 || iy == s.ny-1 {
				perimeter++
			}
		}
	}
	for ix := 0; ix < s.nx; ix++ {
		for iy := 0; iy < s.ny; iy++ {
			if ix == 0 || ix == s.nx-1 || iy == 0 || iy == s.ny-1 {
				s.envUA[ix*s.ny+iy] = cfg.EnvelopeUA / float64(perimeter)
			}
		}
	}
	dx := RoomDepth / float64(s.nx)
	s.seatMask = make([]bool, n)
	for ix := 0; ix < s.nx; ix++ {
		if (float64(ix)+0.5)*dx < cfg.SeatStartX {
			continue
		}
		for iy := 0; iy < s.ny; iy++ {
			s.seatCells = append(s.seatCells, ix*s.ny+iy)
			s.seatMask[ix*s.ny+iy] = true
		}
	}
	s.outletOf = make([]int, s.ny)
	for iy := 0; iy < s.ny; iy++ {
		s.outletOf[iy] = iy * cfg.NumOutlets / s.ny
	}
	for i := range s.temps {
		s.temps[i] = cfg.InitialTemp
	}
	for o := range s.outlet {
		s.outlet[o] = cfg.InitialTemp
	}
	return s
}

func (s *refSim) substep(sub float64, in Inputs) {
	cfg := &s.cfg
	mix := cfg.MixingUA
	if cfg.MixDriftPerDay != 0 {
		mix *= math.Exp(s.elapsed / 86400 * math.Log1p(cfg.MixDriftPerDay))
	}
	boost := cfg.SeatMixBoost
	stage := cfg.StageMixFactor
	groundTemp := cfg.GroundTemp + cfg.GroundTempDriftPerDay*s.elapsed/86400

	flows := make([]float64, cfg.NumOutlets)
	for i, f := range in.HVAC.Flows {
		o := i * cfg.NumOutlets / len(in.HVAC.Flows)
		if o >= cfg.NumOutlets {
			o = cfg.NumOutlets - 1
		}
		flows[o] += f
	}
	var totalFlow float64
	for _, f := range flows {
		totalFlow += f
	}
	for o := range s.outlet {
		alpha := 1 - math.Exp(-sub*flows[o]/cfg.PlenumMass)
		s.outlet[o] += alpha * (in.HVAC.SupplyTemp - s.outlet[o])
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(len(s.seatCells))
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(s.temps))
	}
	var wobAmp, wobPhase float64
	if cfg.TurbulencePower > 0 {
		period := cfg.TurbulencePeriod
		if period <= 0 {
			period = 37 * time.Minute
		}
		frac := 0.12 + 0.88*totalFlow/1.2
		if frac > 1 {
			frac = 1
		}
		wobAmp = frac * cfg.TurbulencePower / float64(len(s.temps))
		wobPhase = 2 * math.Pi * s.elapsed / period.Seconds()
	}
	var wobFront, wobBack float64
	if wobAmp > 0 {
		wobFront = wobAmp * math.Sin(wobPhase)
		wobBack = wobAmp * math.Sin(wobPhase+math.Pi)
	}
	frontPerOutlet := make([]int, cfg.NumOutlets)
	for iy := 0; iy < s.ny; iy++ {
		frontPerOutlet[s.outletOf[iy]]++
	}

	old := s.temps
	next := s.scratch
	nx, ny := s.nx, s.ny
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			seatI := s.seatMask[i]
			var g, gt float64
			edge := func(j int) {
				m := mix
				if seatI == s.seatMask[j] {
					if seatI {
						m *= boost
					}
				} else {
					m *= stage
				}
				g += m
				gt += m * old[j]
			}
			if ix > 0 {
				edge(i - ny)
			}
			if ix < nx-1 {
				edge(i + ny)
			}
			if iy > 0 {
				edge(i - 1)
			}
			if iy < ny-1 {
				edge(i + 1)
			}
			if e := s.envUA[i]; e > 0 {
				g += e
				gt += e * in.Ambient
			}
			g += s.groundUA
			gt += s.groundUA * groundTemp
			load := lightHeat
			if seatI {
				load += occHeat
			}
			if wobAmp > 0 {
				if 5*ix >= 2*nx {
					load += wobBack
				} else {
					load += wobFront
				}
			}
			if ix == 0 {
				o := s.outletOf[iy]
				if flows[o] > 0 {
					gs := flows[o] * airCp / float64(frontPerOutlet[o])
					g += gs
					gt += gs * s.outlet[o]
				}
			}
			next[i] = relax(old[i], g, gt, load, sub, s.cellCap)
		}
	}
	s.temps, s.scratch = next, old
	s.elapsed += sub
}

// fuzzDraw turns fuzz bytes into values; an exhausted input reads as
// zeros, so every byte string is a complete draw.
type fuzzDraw []byte

func (d *fuzzDraw) u16() uint16 {
	var b [2]byte
	*d = (*d)[copy(b[:], *d):]
	return binary.LittleEndian.Uint16(b[:])
}

// in draws from [lo, hi], both ends included.
func (d *fuzzDraw) in(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(d.u16())/math.MaxUint16
}

// intIn draws an integer from [lo, hi].
func (d *fuzzDraw) intIn(lo, hi int) int {
	return lo + int(d.u16())%(hi-lo+1)
}

// config draws a Config that Validate accepts: a 2-16 by 2-16 grid,
// 1..NY outlets, at least one seat column, and every float inside its
// range, zeros included where the range has them.
func (d *fuzzDraw) config() Config {
	c := Config{NX: d.intIn(2, 16), NY: d.intIn(2, 16)}
	c.NumOutlets = d.intIn(1, c.NY)
	c.Height = d.in(0.5, 10)
	c.ThermalMassFactor = d.in(1, 8)
	c.MixingUA = d.in(1, 5000)
	c.MixDriftPerDay = (float64(d.u16()) - 32768) / 65536 // [-0.5, 0.5), 0 at 32768
	c.EnvelopeUA = d.in(0, 300)
	c.GroundUA = d.in(0, 300)
	c.GroundTemp = d.in(0, 30)
	c.GroundTempDriftPerDay = d.in(-0.05, 0.05)
	c.OccupantHeat = d.in(0, 150)
	c.SeatStartX = d.in(-1, (float64(c.NX)-0.5)*RoomDepth/float64(c.NX))
	c.SeatMixBoost = d.in(1, 6)
	c.StageMixFactor = d.in(0.01, 1)
	c.LightingPower = d.in(0, 5000)
	c.TurbulencePower = d.in(0, 10000)
	c.TurbulencePeriod = time.Duration(d.intIn(0, 120)) * time.Minute
	c.PlenumMass = d.in(1, 500)
	c.InitialTemp = d.in(10, 30)
	return c
}

// inputs draws one substep's inputs: 0-6 VAV flows (a zero draw is a
// closed damper), occupancy, lighting and weather.
func (d *fuzzDraw) inputs() Inputs {
	flows := make([]float64, d.intIn(0, 6))
	for i := range flows {
		flows[i] = d.in(0, 0.6)
	}
	return Inputs{
		HVAC:      hvac.State{Flows: flows, SupplyTemp: d.in(10, 25)},
		Occupants: d.intIn(0, 200),
		LightsOn:  d.u16()%2 == 1,
		Ambient:   d.in(-15, 40),
	}
}

// FuzzAuditoriumSubstep steps the compiled stencil and the per-cell
// oracle from the same drawn config, elapsed time and inputs, and
// requires bit-identical cell and plenum temperatures after every
// substep.
func FuzzAuditoriumSubstep(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraw(data)
		cfg := d.config()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("drawn config invalid: %v (%+v)", err, cfg)
		}
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSim(cfg)
		// Up to ~4,100 days ahead: far enough for a -0.5/day drift to
		// underflow the mixing conductance.
		s.elapsed = float64(d.u16()) * 5400
		ref.elapsed = s.elapsed
		sub := d.in(0.5, 60)
		for step, steps := 0, d.intIn(1, 4); step < steps; step++ {
			in := d.inputs()
			s.substep(sub, in)
			ref.substep(sub, in)
			for i := range s.temps {
				if got, want := s.temps[i], ref.temps[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("substep %d cell %d: stencil %v (%x), oracle %v (%x)\nconfig %+v\ninputs %+v",
						step, i, got, math.Float64bits(got), want, math.Float64bits(want), cfg, in)
				}
			}
			for o := range s.outlet {
				if got, want := s.outlet[o], ref.outlet[o]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("substep %d outlet %d: stencil %v, oracle %v", step, o, got, want)
				}
			}
		}
	})
}

// TestPaperGridClasses pins the compiled paper grid: 60 cells fall
// into 11 conductance classes, so a substep takes 11 exps, not 60, and
// into 13 (class, load) groups, each cell once and in row-major order
// within its group.
func TestPaperGridClasses(t *testing.T) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, s.NumCells())
	cells := 0
	for _, g := range s.groups {
		if len(g.nbr) != len(g.cells)*s.classes[g.class].edges {
			t.Fatalf("group %+v: %d neighbours for %d cells", g, len(g.nbr), len(g.cells))
		}
		for k, i := range g.cells {
			if seen[i] || (k > 0 && i <= g.cells[k-1]) {
				t.Fatalf("group %+v: cell %d repeated or out of order", g, i)
			}
			seen[i] = true
			cells++
		}
	}
	if cells != 60 || len(s.classes) != 11 || len(s.groups) != 13 {
		t.Fatalf("%d cells in %d classes and %d groups, want 60 in 11 and 13", cells, len(s.classes), len(s.groups))
	}
}

// TestStepAllocatesNothing: the substep reuses its scratch, so the
// control loops and dataset generation step the room without garbage.
func TestStepAllocatesNothing(t *testing.T) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0, 0.4}, SupplyTemp: 14},
		Occupants: 60,
		LightsOn:  true,
		Ambient:   28,
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Step(time.Minute, in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Step allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkAuditoriumSubstep times the paper grid's substep as the
// control study runs it: one op is a one-minute Step of six 10 s
// substeps under daytime inputs, and ns/substep is a sixth of it.
func BenchmarkAuditoriumSubstep(b *testing.B) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0, 0.4}, SupplyTemp: 14},
		Occupants: 60,
		LightsOn:  true,
		Ambient:   28,
	}
	for b.Loop() {
		if err := s.Step(time.Minute, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(6*b.N), "ns/substep")
}
