package building

import (
	"encoding/binary"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"auditherm/internal/hvac"
	"auditherm/internal/occupancy"
	"auditherm/internal/timeseries"
	"auditherm/internal/weather"
)

// refSim is the auditorium as it was before NewSimulator compiled the
// grid into a stencil: every substep rebuilds each cell's conductances
// from the seat mask, the envelope share and the outlet map, one edge
// at a time, and relaxes it with its own exp, the numerics the
// simulator had before it compiled each Step. With compiled set it
// relaxes each cell by the compiled update rule instead, per cell and
// with a per-cell decay anchor: the oracle the compiled Step must
// match bit for bit.
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

	compiled bool
	anchorG  []float64 // per-cell conductance anchorD was taken at
	anchorD  []float64 // per-cell exp(-sub*anchorG/cellCap)

	// mag is, for the last substep, the largest over the cells of
	// |T| + (|nb| + |envT| + |groundT| + |supplyT| + |load|)/g: a cell's
	// temperature plus its equilibrium's terms, in magnitude, the scale
	// either rule's rounding is relative to.
	mag float64

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
		anchorG: make([]float64, n),
		anchorD: make([]float64, n),
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
	s.beginStep()
	return s
}

// beginStep drops the per-cell decay anchors, as compile does the
// class anchors at the start of every Step.
func (s *refSim) beginStep() {
	for i := range s.anchorG {
		s.anchorG[i] = math.NaN()
	}
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
	s.mag = 0
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			seatI := s.seatMask[i]
			var g, nb float64
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
				nb += m * old[j]
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
			var envT, supplyT float64
			if e := s.envUA[i]; e > 0 {
				g += e
				envT = e * in.Ambient
			}
			g += s.groundUA
			groundT := s.groundUA * groundTemp
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
					supplyT = gs * s.outlet[o]
				}
			}
			// A term a cell lacks is +0, and a sum started from +0 is
			// never -0, so adding it changes nothing.
			gt := nb + envT + groundT + supplyT
			if g > 0 {
				terms := math.Abs(nb) + math.Abs(envT) + math.Abs(groundT) + math.Abs(supplyT) + math.Abs(load)
				s.mag = math.Max(s.mag, math.Abs(old[i])+terms/g)
			}
			if !s.compiled || !(g > 0) {
				next[i] = relax(old[i], g, gt, load, sub, s.cellCap)
				continue
			}
			var d float64
			if x := (g - s.anchorG[i]) * (sub / s.cellCap); math.Abs(x) <= maxSeriesX {
				d = s.anchorD[i] * (1 - x + x*x/2)
			} else {
				d = math.Exp(-sub * g / s.cellCap)
				s.anchorG[i], s.anchorD[i] = g, d
			}
			next[i] = d*old[i] + (1-d)/g*(nb+(envT+groundT+supplyT+load))
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
// oracle of its update rule from the same drawn config, elapsed time
// and Steps of drawn inputs, and requires bit-identical cell and
// plenum temperatures after every substep. It also steps refSim under
// the exact per-cell exp and requires every cell within
// relaxDriftBound of it (see there) for as long as the bound's scale
// stays finite.
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
		oracle, exact := newRefSim(cfg), newRefSim(cfg)
		oracle.compiled = true
		// Up to ~4,100 days ahead: far enough for a -0.5/day drift to
		// underflow the mixing conductance.
		s.elapsed = float64(d.u16()) * 5400
		oracle.elapsed, exact.elapsed = s.elapsed, s.elapsed
		sub := d.in(0.5, 60)
		var scale float64
		for step, steps := 0, d.intIn(1, 3); step < steps; step++ {
			in := d.inputs()
			s.compile(sub, in)
			oracle.beginStep()
			for k, n := 0, d.intIn(1, 6); k < n; k++ {
				s.substep()
				oracle.substep(sub, in)
				exact.substep(sub, in)
				for i := range s.temps {
					if got, want := s.temps[i], oracle.temps[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d substep %d cell %d: stencil %v (%x), oracle %v (%x)\nconfig %+v\ninputs %+v",
							step, k, i, got, math.Float64bits(got), want, math.Float64bits(want), cfg, in)
					}
				}
				for o := range s.outlet {
					if got, want := s.outlet[o], oracle.outlet[o]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d substep %d outlet %d: stencil %v, oracle %v", step, k, o, got, want)
					}
				}
				// A subnormal conductance (the drift underflowing the
				// mixing with no ground or envelope term) makes a
				// cell's load/g, and so the scale, infinite, and the
				// exact rule's teq+(T-teq)*d NaN. The scale stays
				// non-finite from then on, so only the drift bound
				// stops; the bit checks above go on.
				if scale += exact.mag; math.IsInf(scale, 0) || math.IsNaN(scale) {
					continue
				}
				for i := range s.temps {
					if dev := math.Abs(s.temps[i] - exact.temps[i]); !(dev <= relaxDriftBound*scale) {
						t.Fatalf("step %d substep %d cell %d: compiled %v, exact %v: %.3g of the %.3g scale, bound %.3g\nconfig %+v\ninputs %+v",
							step, k, i, s.temps[i], exact.temps[i], dev/scale, scale, relaxDriftBound, cfg, in)
					}
				}
			}
		}
	})
}

// relaxDriftBound bounds how far the compiled Step may drift from the
// exact per-cell exp over the fuzzer's configs, as a fraction of the
// sum over substeps of refSim.mag. Each rule rounds a substep's update
// within a few ulps of that magnitude (where g is tiny, 1-d keeps few
// digits and teq is large, so a cell's temperature alone is not the
// scale), the series adds under 1.7e-16 of it, and a Jacobi sweep
// whose weights sum to at most 1 does not grow a deviation, so the
// drift grows only by addition. Over 150,000 random draws the largest
// ratio was 3.8e-16.
const relaxDriftBound = 1e-14

// TestCompiledTracksExactRelax steps the default auditorium and refSim
// under the exact per-cell exp through 14 days of the default
// dataset's inputs (its weather, occupancy schedule and plant, the
// plant reading the compiled room's thermostats) in 30 s and in
// 2-minute Steps, and holds every cell within 1e-12 degC of refSim
// after every Step.
func TestCompiledTracksExactRelax(t *testing.T) {
	if raceEnabled() {
		t.Skip("serial numerics the race detector has nothing to check in; ~11 s under -race")
	}
	const days = 14
	start := time.Date(2013, time.January, 31, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, days)
	wm, err := weather.NewModel(weather.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := timeseries.NewGrid(start, end.Add(time.Hour), 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ambient := wm.Series(grid)
	sched, err := occupancy.Generate(start, end, occupancy.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var thermo []Point
	for _, sp := range AuditoriumSensors() {
		if sp.Thermostat {
			thermo = append(thermo, sp.Pos)
		}
	}
	readings := make([]float64, len(thermo))
	for _, step := range []time.Duration{30 * time.Second, 2 * time.Minute} {
		cfg := DefaultConfig()
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exact := newRefSim(cfg)
		plant, err := hvac.NewPlant(hvac.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		steps, sub := substeps(step, cfg.MaxStep)
		var worst float64
		for at := start; at.Before(end); at = at.Add(step) {
			amb, ok := ambient.InterpAt(at)
			if !ok {
				t.Fatalf("no ambient at %v", at)
			}
			s.TemperaturesAt(thermo, readings)
			st, err := plant.Step(at, step, readings)
			if err != nil {
				t.Fatal(err)
			}
			occ := sched.CountAt(at)
			in := Inputs{HVAC: st, Occupants: occ, LightsOn: occ > 0, Ambient: amb}
			if err := s.Step(step, in); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < steps; k++ {
				exact.substep(sub, in)
			}
			for i, v := range s.temps {
				worst = math.Max(worst, math.Abs(v-exact.temps[i]))
			}
		}
		t.Logf("%v Steps: largest deviation from the exact exp %.3g degC", step, worst)
		if !(worst <= 1e-12) {
			t.Errorf("%v Steps: compiled room %.3g degC from the exact exp, above 1e-12", step, worst)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestPaperGridClasses pins the compiled paper grid: 60 cells fall
// into 11 conductance classes, so a Step's first substep takes 11 decay
// exps, not 60, and
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

// TestStepAllocatesNothing: every archetype's Step reuses its scratch
// and TemperaturesAt fills a matching buffer, so the control loops and
// dataset generation step and probe a building without garbage.
func TestStepAllocatesNothing(t *testing.T) {
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0, 0.4}, SupplyTemp: 14},
		Occupants: 60,
		LightsOn:  true,
		Ambient:   28,
	}
	for _, name := range Archetypes() {
		sp, err := DefaultSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sp.New()
		if err != nil {
			t.Fatal(err)
		}
		var ps []Point
		for _, s := range sp.Sensors() {
			ps = append(ps, s.Pos)
		}
		dst := make([]float64, len(ps))
		if allocs := testing.AllocsPerRun(100, func() {
			if err := b.Step(time.Minute, in); err != nil {
				t.Fatal(err)
			}
			b.TemperaturesAt(ps, dst)
		}); allocs != 0 {
			t.Errorf("%s: Step and TemperaturesAt allocate %v times per call, want 0", name, allocs)
		}
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
