package obs

import (
	"path/filepath"
	"testing"
	"time"
)

func TestManifestRoundTrip(t *testing.T) {
	b := NewManifest("testtool")
	b.SetSeed(42)
	b.SetConfig(map[string]string{"days": "98", "order": "2"})
	b.SetMetric("rms90_degc", 0.66)
	b.AddNote("round-trip test")

	b.StartStage("fit")
	time.Sleep(2 * time.Millisecond)
	b.EndStage()
	b.StageCount("fit", "windows", 12)

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if m.Tool != "testtool" || m.Seed != 42 {
		t.Errorf("tool/seed = %q/%d", m.Tool, m.Seed)
	}
	if m.Config["days"] != "98" || m.Config["order"] != "2" {
		t.Errorf("config = %v", m.Config)
	}
	if len(m.ConfigHash) != 16 {
		t.Errorf("config hash %q not 16 hex chars", m.ConfigHash)
	}
	if m.Metrics["rms90_degc"] != 0.66 {
		t.Errorf("metrics = %v", m.Metrics)
	}
	if len(m.Notes) != 1 || m.Notes[0] != "round-trip test" {
		t.Errorf("notes = %v", m.Notes)
	}
	st, ok := m.Stages["fit"]
	if !ok {
		t.Fatalf("stages = %v", m.Stages)
	}
	if st.WallMS <= 0 {
		t.Errorf("fit stage wall %v not positive", st.WallMS)
	}
	if st.Counts["windows"] != 12 {
		t.Errorf("stage counts = %v", st.Counts)
	}
	if m.WallMS <= 0 || m.FinishedAt.Before(m.StartedAt) {
		t.Errorf("timing: wall=%v started=%v finished=%v", m.WallMS, m.StartedAt, m.FinishedAt)
	}
	if m.GoVersion == "" || m.NumCPU <= 0 {
		t.Errorf("environment fields missing: %+v", m)
	}
}

func TestManifestArtifactsAndStageWall(t *testing.T) {
	b := NewManifest("t")
	b.AddStageWall("simulate", 120*time.Millisecond)
	b.AddStageWall("simulate", 30*time.Millisecond)
	b.StageArtifact("simulate", ArtifactStat{
		Key: "abcd", Digest: "ef01", Bytes: 2048, CacheHit: true, WallMS: 150,
	})

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stages["simulate"].WallMS; got != 150 {
		t.Errorf("accumulated stage wall %v ms, want 150", got)
	}
	a, ok := m.Artifacts["simulate"]
	if !ok {
		t.Fatalf("artifacts = %v", m.Artifacts)
	}
	if a.Key != "abcd" || a.Digest != "ef01" || a.Bytes != 2048 || !a.CacheHit || a.WallMS != 150 {
		t.Errorf("artifact stat = %+v", a)
	}
}

func TestManifestConfigHashDeterministic(t *testing.T) {
	a := NewManifest("t")
	a.SetConfig(map[string]string{"b": "2", "a": "1"})
	b := NewManifest("t")
	b.SetConfig(map[string]string{"a": "1", "b": "2"})
	ha := a.Finish().ConfigHash
	hb := b.Finish().ConfigHash
	if ha != hb {
		t.Errorf("hash differs for identical configs: %q vs %q", ha, hb)
	}
	c := NewManifest("t")
	c.SetConfig(map[string]string{"a": "1", "b": "3"})
	if hc := c.Finish().ConfigHash; hc == ha {
		t.Error("hash identical for different configs")
	}
}

func TestManifestStartStageClosesPrevious(t *testing.T) {
	b := NewManifest("t")
	b.StartStage("one")
	time.Sleep(time.Millisecond)
	b.StartStage("two")
	time.Sleep(time.Millisecond)
	m := b.Finish()
	if m.Stages["one"].WallMS <= 0 || m.Stages["two"].WallMS <= 0 {
		t.Errorf("stages = %+v", m.Stages)
	}
}

func TestReadManifestFileMissing(t *testing.T) {
	if _, err := ReadManifestFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing manifest accepted")
	}
}
