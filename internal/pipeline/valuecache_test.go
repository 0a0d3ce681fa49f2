package pipeline

import (
	"context"
	"fmt"
	"os"
	"testing"

	"auditherm/internal/artifact"
	"auditherm/internal/obs"
)

var bigCodec = artifact.JSONCodec[[]int]("test-big", 1)

// defineBig adds a stage whose artifact is large enough that decoding
// it dominates the warm path's allocations.
func defineBig(e *Engine, runs *int) *Node[[]int] {
	return Define(e, "big", bigCodec, map[string]string{"n": "10000"}, nil,
		func(ctx context.Context) ([]int, error) {
			if runs != nil {
				*runs++
			}
			vals := make([]int, 10000)
			for i := range vals {
				vals[i] = i * 3
			}
			return vals, nil
		})
}

// TestSharedBackendMemoizesDecodes covers the cross-engine decode
// memoization: engines sharing one tiered backend must decode a given
// artifact once per process, not once per request — the cold Put seeds
// the decoded-value cache and every warm engine's Get is served from it.
func TestSharedBackendMemoizesDecodes(t *testing.T) {
	ctx := context.Background()
	shared, err := artifact.OpenSpec("mem,local", artifact.SpecOptions{LocalRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	cold, err := New(Options{Backend: shared})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defineBig(cold, nil).Get(ctx); err != nil {
		t.Fatal(err)
	}

	before := obs.Default.CounterValue("auditherm_pipeline_decodes_total")
	for i := 0; i < 3; i++ {
		runs := 0
		e, err := New(Options{Backend: shared})
		if err != nil {
			t.Fatal(err)
		}
		v, err := defineBig(e, &runs).Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 10000 || v[4242] != 4242*3 {
			t.Fatalf("warm engine %d value mangled (len %d)", i, len(v))
		}
		if runs != 0 {
			t.Errorf("warm engine %d recomputed the stage", i)
		}
	}
	if after := obs.Default.CounterValue("auditherm_pipeline_decodes_total"); after != before {
		t.Errorf("warm engines decoded %d times; the shared value cache must serve them", after-before)
	}
}

// TestValueCacheDropsDecodeAllocs is the allocs gate on the decode
// memoization: a warm Get over a shared tiered backend (value-cache
// hit, no filesystem) must allocate far less than the same Get over a
// plain local store (stat + open + full JSON decode per request).
func TestValueCacheDropsDecodeAllocs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	plain, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cold, err := New(Options{Backend: plain})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defineBig(cold, nil).Get(ctx); err != nil {
		t.Fatal(err)
	}

	warmGet := func(b artifact.Backend) float64 {
		return testing.AllocsPerRun(10, func() {
			e, err := New(Options{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			v, err := defineBig(e, nil).Get(ctx)
			if err != nil || len(v) != 10000 {
				t.Fatalf("warm get: len %d, err %v", len(v), err)
			}
		})
	}
	plainAllocs := warmGet(plain)

	shared, err := artifact.OpenSpec("mem,local", artifact.SpecOptions{LocalRoot: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	// First warm pass promotes the artifact into the hot tier and seeds
	// the value cache; the measured passes ride both.
	warm, err := New(Options{Backend: shared})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defineBig(warm, nil).Get(ctx); err != nil {
		t.Fatal(err)
	}
	sharedAllocs := warmGet(shared)

	if sharedAllocs >= plainAllocs/2 {
		t.Errorf("value-cached warm get allocates %.0f/op vs %.0f/op decoding; memoization must drop allocs by at least 2x",
			sharedAllocs, plainAllocs)
	}
}

// TestEvictedArtifactRecomputes covers the eviction-safety contract at
// the engine level: an artifact evicted, or torn, between the cache hit
// (Stat) and the lazy decode (Open) recomputes from the stage function
// — the consumer sees the right value, never an error. A torn artifact
// fails the store's trailer check at the end of the decode's read.
func TestEvictedArtifactRecomputes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"evicted", os.Remove},
		{"torn", func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[0] ^= 0x20
			return os.WriteFile(path, raw, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			runs := 0
			defineA := func(e *Engine) *Node[int] {
				return Define(e, "a", intCodec, map[string]string{"v": "7"}, nil,
					func(ctx context.Context) (int, error) { runs++; return 7, nil })
			}
			cold, err := New(Options{Backend: st})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := defineA(cold).Get(ctx); err != nil {
				t.Fatal(err)
			}
			if runs != 1 {
				t.Fatalf("cold runs %d", runs)
			}

			warm, err := New(Options{Backend: st})
			if err != nil {
				t.Fatal(err)
			}
			a := defineA(warm)
			// reader resolves a (a warm Stat hit, decode deferred), then
			// damages a's artifact behind the engine's back before
			// demanding the value.
			reader := Define(warm, "reader", intCodec, nil, []AnyNode{a},
				func(ctx context.Context) (int, error) {
					r, ok := a.Result()
					if !ok || !r.CacheHit {
						return 0, fmt.Errorf("dependency not a cache hit: %+v", r)
					}
					path, err := st.Path(r.Key)
					if err != nil {
						return 0, err
					}
					if err := tc.damage(path); err != nil {
						return 0, err
					}
					return a.Get(ctx)
				})
			before := obs.Default.CounterValue("auditherm_pipeline_evicted_recomputes_total")
			v, err := reader.Get(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if v != 7 {
				t.Fatalf("%s stage value %d, want 7", tc.name, v)
			}
			if runs != 2 {
				t.Errorf("stage ran %d times, want 2 (cold + %s recompute)", runs, tc.name)
			}
			if after := obs.Default.CounterValue("auditherm_pipeline_evicted_recomputes_total"); after != before+1 {
				t.Errorf("evicted-recompute counter moved %d, want 1", after-before)
			}
		})
	}
}
