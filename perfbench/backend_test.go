package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
)

var textCodec = artifact.JSONCodec[string]("perfbench-test", 1)

// resolve defines one stage on a fresh engine over b and returns its value
// and whether it came from the store.
func resolve(t *testing.T, b artifact.Backend) (string, bool) {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	n := pipeline.Define(eng, "stage", textCodec, map[string]string{"k": "v"}, nil,
		func(context.Context) (string, error) { return "value", nil })
	v, err := n.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := n.Result()
	return v, res.CacheHit
}

func TestWrapBackendForwardsValueCacher(t *testing.T) {
	if _, ok := wrapBackend(artifact.NewMem(1<<20), nil).(artifact.ValueCacher); !ok {
		t.Fatal("wrapper over a value-caching backend hides artifact.ValueCacher")
	}
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := wrapBackend(st, nil).(artifact.ValueCacher); ok {
		t.Fatal("wrapper over a local store claims artifact.ValueCacher")
	}
}

// A warm engine over the wrapper must be served from the decoded-value
// cache, exactly like one over the bare backend: no artifact decode.
func TestWrappedEngineTakesDecodeCachePath(t *testing.T) {
	b := wrapBackend(artifact.NewMem(1<<20), newTracer("test"))
	if _, hit := resolve(t, b); hit {
		t.Fatal("cold run reported a cache hit")
	}
	before := snapCounters()
	v, hit := resolve(t, b)
	after := snapCounters()
	if v != "value" || !hit {
		t.Fatalf("warm run: value %q, hit %v", v, hit)
	}
	if d := after.since(before, "pipeline_decodes_total"); d != 0 {
		t.Fatalf("warm run decoded %v artifacts; want the value cache", d)
	}
	if d := after.since(before, "artifact_value_hits_total"); d != 1 {
		t.Fatalf("warm run value-cache hits %v, want 1", d)
	}
}

func TestAttributionSelfTimes(t *testing.T) {
	tr := newTracer(obs.NewRunID())
	store := wrapBackend(artifact.NewMem(1<<20), tr)
	ctx, root := tr.start(context.Background(), "bench/test")
	if _, err := store.Put(ctx, artifact.Key("s", "c", 1, "", nil), func(w io.Writer) error {
		time.Sleep(2 * time.Millisecond)
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	root.end()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	a, err := attribute(path, map[string]bool{"bench": true})
	if err != nil {
		t.Fatal(err)
	}
	if a.self["artifact.encode"] < 2*time.Millisecond {
		t.Fatalf("encode self time %v, want >= 2ms", a.self["artifact.encode"])
	}
	sum := a.unattributed()
	for name, d := range a.self {
		if name != "bench" {
			sum += d
		}
	}
	if sum != a.wall {
		t.Fatalf("self times + unattributed = %v, wall %v", sum, a.wall)
	}
}
