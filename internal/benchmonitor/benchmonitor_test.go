// Package benchmonitor records the model-health monitoring benchmark
// matrix into BENCH_monitor.json at the repository root. It is a test
// package only: run via
//
//	make bench-monitor
//
// (equivalently: go test ./internal/benchmonitor -run
// RecordMonitorBench -record-monitor-bench). Alongside the timings it
// enforces the subsystem's steady-state guarantee — the warmed-up
// update path allocates nothing — and refuses to write the file when
// that fails.
package benchmonitor

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"auditherm/internal/monitor"
)

var recordMonitorBench = flag.Bool("record-monitor-bench", false, "measure the monitor hot-path benchmarks and write BENCH_monitor.json at the repo root")

type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Note        string  `json:"note,omitempty"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

type benchFile struct {
	Generated        string     `json:"generated"`
	GoVersion        string     `json:"go_version"`
	NumCPU           int        `json:"num_cpu"`
	Note             string     `json:"note"`
	Reproduce        string     `json:"reproduce"`
	SteadyZeroAllocs bool       `json:"steady_state_update_zero_allocs"`
	Benchmarks       []benchRow `json:"benchmarks"`
}

var simStart = time.Date(2013, time.March, 4, 0, 0, 0, 0, time.UTC)

// warmMonitor returns a monitor with n warmed-up sensors fed a quiet
// residual stream (the steady-state hot path).
func warmMonitor(t testing.TB, n int) *monitor.Monitor {
	cfg := monitor.DefaultConfig()
	cfg.Clock = func() time.Time { return simStart }
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	m, err := monitor.New(names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	need := cfg.Warmup + cfg.Windows[len(cfg.Windows)-1] + 16
	for k := 0; k < need; k++ {
		for i := 0; i < n; i++ {
			m.Update(i, 21, 21+0.05*math.Sin(float64(k+i)))
		}
	}
	return m
}

func TestRecordMonitorBench(t *testing.T) {
	if !*recordMonitorBench {
		t.Skip("pass -record-monitor-bench (or run `make bench-monitor`) to regenerate BENCH_monitor.json")
	}

	// Hard gate: the warmed-up single-sensor update path must not
	// allocate, or the file is not written.
	gate := warmMonitor(t, 1)
	k := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		gate.Update(0, 21, 21+0.05*math.Sin(float64(k)))
	})
	zeroAllocs := allocs == 0
	if !zeroAllocs {
		t.Fatalf("refusing to write BENCH_monitor.json: steady-state Update allocates %.1f allocs/op, want 0", allocs)
	}

	var rows []benchRow
	measure := func(name, note string, perOp int, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		ns := res.NsPerOp()
		row := benchRow{
			Name:        name,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Note:        note,
		}
		if ns > 0 {
			row.OpsPerSec = float64(perOp) * 1e9 / float64(ns)
		}
		rows = append(rows, row)
	}

	m1 := warmMonitor(t, 1)
	measure("monitor.Update/steady-state", "warmed-up sensor, wall clock, no transitions", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m1.Update(0, 21, 21+0.05*math.Sin(float64(i)))
		}
	})
	measure("monitor.UpdateAt/steady-state", "pinned timestamp: stats + detectors + state machine only", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m1.UpdateAt(0, 21, 21+0.05*math.Sin(float64(i)), simStart)
		}
	})

	const sensors = 27 // the auditorium's sensor count
	m27 := warmMonitor(t, sensors)
	measure("monitor.Update/27-sensor-sweep", "one full decision step of the auditorium deployment", sensors, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < sensors; s++ {
				m27.UpdateAt(s, 21, 21+0.05*math.Sin(float64(i+s)), simStart)
			}
		}
	})
	measure("monitor.Snapshot/27-sensors", "full per-sensor stats export (allocates by design)", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m27.Snapshot()
		}
	})

	out := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Note: "Steady-state per-update cost of the model-health monitor (ring-buffer window " +
			"stats over two horizons, EWMA tracks, CUSUM + Page-Hinkley, state machine, metric " +
			"gauges). The zero-allocs gate must hold before this file is written; Snapshot is " +
			"the only path expected to allocate.",
		Reproduce:        "make bench-monitor  (or: go test ./internal/benchmonitor -run RecordMonitorBench -record-monitor-bench)",
		SteadyZeroAllocs: zeroAllocs,
		Benchmarks:       rows,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := "../../BENCH_monitor.json"
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmark rows)\n", path, len(rows))
}
