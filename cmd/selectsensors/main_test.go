package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"auditherm/internal/cliutil"
	"auditherm/internal/dataset"
)

func testRuntime(t *testing.T) *cliutil.Runtime {
	t.Helper()
	c := &cliutil.Common{LogLevel: "error"}
	rt, err := c.Start("selectsensors")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func writeTestCSV(t *testing.T) string {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Days = 10
	cfg.SimStep = time.Minute
	cfg.MaxStale = 90 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 1
	cfg.NodeFailureProb = 0
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, d.Frame); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunComparesMethods(t *testing.T) {
	csv := writeTestCSV(t)
	if err := run(testRuntime(t), csv, 2, 3, 6, 21); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	csv := writeTestCSV(t)
	if err := run(testRuntime(t), "", 2, 3, 6, 21); err == nil {
		t.Error("missing input accepted")
	}
	if err := run(testRuntime(t), csv, 2, 0, 6, 21); err == nil {
		t.Error("zero seeds accepted")
	}
	if err := run(testRuntime(t), filepath.Join(t.TempDir(), "nope.csv"), 2, 3, 6, 21); err == nil {
		t.Error("missing file accepted")
	}
}
