package sysid

import (
	"math/rand"
	"testing"
)

// BenchmarkFitDecoupled measures the per-sensor decoupled fit (p=28
// sensors as in the paper's auditorium, one day of minute data) at the
// process default worker count. ReportAllocs makes the shared-inputs /
// shared-mask satellite fix visible as an allocation drop.
func BenchmarkFitDecoupled(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	sys := wideSynth(28)
	d := sys.generate(rng, 1440, 0.01)
	opts := Options{Ridge: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitDecoupled(d, fullWindow(d), FirstOrder, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFit measures the coupled joint solve (QR-dominated) for
// comparison; it runs serially on the calling goroutine.
func BenchmarkFit(b *testing.B) {
	rng := rand.New(rand.NewSource(82))
	sys := wideSynth(28)
	d := sys.generate(rng, 1440, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d, fullWindow(d), FirstOrder, Options{Ridge: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}
