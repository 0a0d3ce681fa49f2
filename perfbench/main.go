// Command perfbench is auditherm's benchmark: one program that runs a
// workload for a fixed time, checks its outputs, and prints every
// metric by name with its unit as the last line of standard output.
//
//	go run . --workload fleet-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each exists; layers.json what
// each metric means on each workload and which layer moves it):
//
//   - fleet-cold: a mixed-archetype portfolio through fleet.Run on a
//     2-worker engine over an empty local store, repeated cold.
//   - serve-mixed: the serving daemon on loopback, warmed, then a
//     closed loop of 2 clients mixing response-cache hits with fresh
//     control, select, sysid and fleet-edit keys.
//   - paper-98d: the paper's 98-day, 30 s trace through
//     simulate→frame→sysid→evaluate→cluster→select as one building.
//     It runs on demand only: its model accuracy moves across trace
//     seeds by more than an accuracy bound allows, and fleet-cold
//     measures every layer it exercises.
//
// With --trace 0 the run reports the end-to-end metrics, its timings
// put at a reference host speed by calibration bursts (calib.go); with
// --trace 1 it is a separate traced run reporting per-layer metrics,
// and it writes its spans as a JSONL trace under .bench_build/traces.
// The library and daemon are driven only through their public APIs;
// layers are measured from outside, by spans around calls into each
// layer and by deltas of the auditherm_* counters in obs.Default.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"auditherm/internal/obs"
	"auditherm/internal/stats"
)

// workers is the engine worker count and the serve client count: all
// load comes from one process with at most two goroutines issuing work.
const workers = 2

// workDir holds stores and traces; it lives in the checkout's build
// directory, which the repository ignores.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns: the operation tally and the
// metric values by name (units come from the metric tables below).
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// endToEnd are the user-visible metrics every untraced run reports.
// Every workload reports every one, so the names are shared; their
// per-workload meaning is recorded in layers.json. There is no
// error_rate metric: it would read 0, so failures are the result's
// failed count over attempted.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"model_rmse_p90_degc", "degC"},
}

// perLayer are the traced run's metrics; a layer a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sysid.fit_s", "s"},
	{"sysid.fits", "count"},
	{"sysid.fit_equations", "count"},
	{"sysid.evaluate_s", "s"},
	{"sysid.spectral_radius_s", "s"},
	{"mat.eigensolves", "count"},
	{"mat.qr_factorizations", "count"},
	{"dataset.generate_s", "s"},
	{"dataset.prepare_s", "s"},
	{"building.cells_stepped", "count"},
	{"building.cells_per_s", "1/s"},
	{"sensornet.ingested", "count"},
	{"sensornet.drop_ratio", "ratio"},
	{"artifact.encode_s", "s"},
	{"artifact.encode_bytes", "bytes"},
	{"artifact.decode_s", "s"},
	{"artifact.put_s", "s"},
	{"artifact.open_s", "s"},
	{"artifact.value_hit_ratio", "ratio"},
	{"artifact.mem_hit_ratio", "ratio"},
	{"control.prepare_s", "s"},
	{"control.loop_s", "s"},
	{"control.ticks", "count"},
	{"control.decisions", "count"},
	{"cluster.similarity_s", "s"},
	{"cluster.spectral_s", "s"},
	{"cluster.kmeans_iterations", "count"},
	{"selection.select_s", "s"},
	{"selection.gp_s", "s"},
	{"selection.gp_candidate_evals", "count"},
	{"pipeline.stages", "count"},
	{"pipeline.cache_hit_ratio", "ratio"},
	{"pipeline.decodes", "count"},
	{"par.tasks", "count"},
	{"par.utilization", "ratio"},
	{"fleet.member_s.p50", "s"},
	{"fleet.member_s.max", "s"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"serve.miss_latency_p50_ms.control", "ms"},
	{"serve.miss_latency_p50_ms.select", "ms"},
	{"serve.miss_latency_p50_ms.sysid", "ms"},
	{"serve.miss_latency_p50_ms.fleet_edit", "ms"},
	{"serve.miss_latency_p50_ms.cluster", "ms"},
	{"serve.response_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"unattributed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

type workload func(seed int64, seconds float64, trace bool) (outcome, error)

var workloads = map[string]workload{
	"fleet-cold":  fleetCold,
	"paper-98d":   paper98d,
	"serve-mixed": serveMixed,
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-cold, paper-98d or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet-cold|paper-98d|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	table := endToEnd
	if *trace == 1 {
		table = perLayer
	} else {
		out.values["peak_rss_mb"] = peakRSSMB()
		host.normalize(out.values)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, m := range table {
		v, ok := out.values[m.name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.name, v)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untilDeadline runs op until seconds have elapsed, at least once,
// timing a calibration burst on host before each op.
func untilDeadline(seconds float64, op func() error) error {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(end); first = false {
		host.burst()
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is stats.Percentile over a copy (q in [0, 100]).
func percentile(xs []float64, q float64) float64 {
	v, err := stats.Percentile(append([]float64(nil), xs...), q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// counters is a snapshot of the obs.Default counters and histogram sums.
type counters struct {
	c    map[string]int64
	hsum map[string]float64
}

func snapCounters() counters {
	s := obs.Default.Snapshot()
	out := counters{c: map[string]int64{}, hsum: map[string]float64{}}
	for _, c := range s.Counters {
		out.c[c.Name] = c.Value
	}
	for _, h := range s.Histograms {
		out.hsum[h.Name] = h.Sum
	}
	return out
}

// since returns the growth of counter name (auditherm_ prefix implied)
// from before to now.
func (now counters) since(before counters, name string) float64 {
	return float64(now.c["auditherm_"+name] - before.c["auditherm_"+name])
}

// sumSince returns the growth of histogram name's sum.
func (now counters) sumSince(before counters, name string) float64 {
	return now.hsum["auditherm_"+name] - before.hsum["auditherm_"+name]
}

// counterLayers fills the per-layer counts and ratios that come from
// the obs.Default counters over [before, now], except the pipeline and
// par ones, which engineLayers takes over an engine run.
func counterLayers(v map[string]float64, before, now counters) {
	d := func(name string) float64 { return now.since(before, name) }
	v["sysid.fits"] = d("sysid_fits_total")
	v["sysid.fit_equations"] = d("sysid_fit_equations_total")
	v["mat.eigensolves"] = d("mat_eigensolves_total")
	v["mat.qr_factorizations"] = d("mat_qr_factorizations_total")
	v["building.cells_stepped"] = d("building_cells_stepped_total")
	v["sensornet.ingested"] = d("sensornet_ingested_total")
	v["sensornet.drop_ratio"] = ratio(d("sensornet_dropped_total"), d("sensornet_dropped_total")+d("sensornet_ingested_total"))
	v["artifact.encode_bytes"] = d("artifact_local_put_bytes_total")
	v["artifact.value_hit_ratio"] = ratio(d("artifact_value_hits_total"), d("artifact_value_hits_total")+d("artifact_value_misses_total"))
	v["artifact.mem_hit_ratio"] = ratio(d("artifact_mem_hits_total"), d("artifact_mem_hits_total")+d("artifact_mem_misses_total"))
	v["control.ticks"] = d("control_ticks_total")
	v["control.decisions"] = d("control_decisions_total")
	v["cluster.kmeans_iterations"] = d("cluster_kmeans_iterations_total")
	v["selection.gp_candidate_evals"] = d("selection_gp_candidate_evals_total")
}

// spanLayers writes the trace to .bench_build/traces/<tag>.jsonl, reads
// it back and fills each span name's self time as "<name>_s" plus
// unattributed_frac. Spans under a serve client are named after their
// request class, which no per-layer metric reads: there the client
// timings carry the layer numbers and the trace gives the attribution.
func spanLayers(v map[string]float64, t *tracer, tag string, containers ...string) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, tag+".jsonl")
	if err := t.writeJSONL(path); err != nil {
		return err
	}
	cs := map[string]bool{}
	for _, c := range containers {
		cs[c] = true
	}
	a, err := attribute(path, cs)
	if err != nil {
		return err
	}
	for name, d := range a.self {
		if !cs[name] {
			v[name+"_s"] = d.Seconds()
		}
	}
	v["unattributed_frac"] = ratio(a.unattributed().Seconds(), a.wall.Seconds())
	printAttribution(a, path)
	return nil
}

// printAttribution writes the layer table to standard error, largest
// self time first.
func printAttribution(a attribution, path string) {
	type row struct {
		name string
		d    time.Duration
	}
	var rows []row
	for name, d := range a.self {
		if !a.containers[name] {
			rows = append(rows, row{name, d})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	fmt.Fprintf(os.Stderr, "trace %s: wall %.3fs\n", path, a.wall.Seconds())
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-24s %9.3fs %6.1f%%\n", r.name, r.d.Seconds(), 100*ratio(r.d.Seconds(), a.wall.Seconds()))
	}
	u := a.unattributed()
	fmt.Fprintf(os.Stderr, "  %-24s %9.3fs %6.1f%%\n", "(unattributed)", u.Seconds(), 100*ratio(u.Seconds(), a.wall.Seconds()))
}
