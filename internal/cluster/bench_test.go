package cluster

import (
	"math"
	"math/rand"
	"testing"

	"auditherm/internal/mat"
)

// benchTraces builds a deterministic 24-sensor, 600-step trace matrix
// with two latent groups so the spectral pipeline does realistic work.
func benchTraces() *mat.Dense {
	const sensors, steps = 24, 600
	rng := rand.New(rand.NewSource(7))
	x := mat.NewDense(sensors, steps)
	for i := 0; i < sensors; i++ {
		phase := 0.0
		if i >= sensors/2 {
			phase = math.Pi / 2
		}
		for k := 0; k < steps; k++ {
			v := 21 + 2*math.Sin(2*math.Pi*float64(k)/96+phase) + 0.3*rng.NormFloat64()
			x.Set(i, k, v)
		}
	}
	return x
}

// BenchmarkSpectralCluster covers the whole clustering pipeline:
// similarity build, Laplacian, Jacobi eigensolve, and k-means — the
// O(n^2)-O(n^3) stages the obs counters ride on.
func BenchmarkSpectralCluster(b *testing.B) {
	x := benchTraces()
	w, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralCluster(w, 0, SpectralOptions{Seed: 11}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityMatrix isolates the O(n^2 m) similarity stage.
func BenchmarkSimilarityMatrix(b *testing.B) {
	x := benchTraces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimilarityMatrix(x, Correlation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceMatrix isolates the pairwise distance kernel.
func BenchmarkDistanceMatrix(b *testing.B) {
	x := benchTraces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceMatrix(x)
	}
}

// TestClusterAllocCaps holds the similarity build and the whole
// spectral pipeline on benchTraces at or under the allocation counts
// recorded for them.
func TestClusterAllocCaps(t *testing.T) {
	x := benchTraces()
	w, err := SimilarityMatrix(x, Correlation)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func() error
		max  float64
	}{
		{"SimilarityMatrix", func() error { _, err := SimilarityMatrix(x, Correlation); return err }, 5},
		{"SpectralCluster", func() error { _, err := SpectralCluster(w, 0, SpectralOptions{Seed: 11}); return err }, 150},
	} {
		n := testing.AllocsPerRun(5, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.max {
			t.Errorf("%s allocates %.0f allocs/op, want at most %.0f", c.name, n, c.max)
		}
	}
}
