package dataset

import (
	"testing"
	"time"
)

// benchConfig is a short trace that keeps the benchmark under ~100 ms
// per iteration while still exercising the full co-simulation path
// (building physics, HVAC plant, sensors, resampling).
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 2
	cfg.SimStep = time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 1
	cfg.NodeFailureProb = 0
	return cfg
}

// BenchmarkGenerate is the instrumentation-overhead sentinel: the obs
// counters on the simulator/dataset hot path must stay within 5% of a
// registry-free build (they are single atomic ops per Step/Generate,
// not per cell).
func BenchmarkGenerate(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateAllocCap holds a benchConfig trace at or under the
// allocation count recorded for it.
func TestGenerateAllocCap(t *testing.T) {
	const maxAllocs = 58875
	cfg := benchConfig()
	n := testing.AllocsPerRun(1, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Errorf("Generate allocates %.0f allocs/op, want at most %d", n, maxAllocs)
	}
}
