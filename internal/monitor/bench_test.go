package monitor

import (
	"math"
	"testing"
	"time"
)

// warmMonitor returns a monitor with one warmed-up sensor fed a quiet
// stream (the steady-state hot path).
func warmMonitor(b testing.TB) *Monitor {
	cfg := DefaultConfig()
	cfg.Clock = func() time.Time { return simStart }
	m, err := New([]string{"bench"}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < cfg.Warmup+cfg.Windows[len(cfg.Windows)-1]+16; k++ {
		m.Update(0, 21, 21+0.05*math.Sin(float64(k)))
	}
	return m
}

// TestUpdateZeroAllocs is the monitor's hot-path gate: the
// steady-state update path (warmed-up sensor, no state
// transitions) must not allocate.
func TestUpdateZeroAllocs(t *testing.T) {
	m := warmMonitor(t)
	k := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		m.Update(0, 21, 21+0.05*math.Sin(float64(k)))
	})
	if allocs != 0 {
		t.Errorf("steady-state Update allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkUpdate measures the per-update cost of the full monitor
// path: ring-buffer stats over two horizons, EWMA, CUSUM,
// Page-Hinkley, state machine, and metric gauges.
func BenchmarkUpdate(b *testing.B) {
	m := warmMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(0, 21, 21+0.05*math.Sin(float64(i)))
	}
}

// BenchmarkUpdateAt pins the timestamp (no clock call), isolating the
// statistics + detector arithmetic.
func BenchmarkUpdateAt(b *testing.B) {
	m := warmMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UpdateAt(0, 21, 21+0.05*math.Sin(float64(i)), simStart)
	}
}
