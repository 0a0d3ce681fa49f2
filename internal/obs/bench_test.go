package obs

import (
	"io"
	"testing"
)

// The registry's hot-path cost budget: counters/gauges/histograms are
// single atomic ops so per-cell simulator loops can carry them.
//
// Each fixture below warms its state and returns one steady-state
// operation. The Benchmark* functions time the operations and
// TestHotPathsZeroAllocs counts their allocations.

func counterInc(testing.TB) func() {
	return NewRegistry().NewCounter("bench_total", "").Inc
}

func gaugeSet(testing.TB) func() {
	g := NewRegistry().NewGauge("bench_gauge", "")
	var v float64
	return func() {
		v++
		g.Set(v)
	}
}

func histogramObserve(testing.TB) func() {
	h := NewRegistry().NewHistogram("bench_hist", "", DurationBuckets)
	return func() { h.Observe(0.003) }
}

// histogramObserveSpan is the exemplar hot path: Observe plus three
// atomic stores for the bucket's exemplar slot.
func histogramObserveSpan(testing.TB) func() {
	h := NewRegistry().NewHistogram("bench_hist", "", DurationBuckets)
	sp := newSpan("bench")
	return func() { h.ObserveSpan(0.003, sp) }
}

// spanStartEnd is the no-exporter span lifecycle: allocate,
// attribute, end.
func spanStartEnd(testing.TB) func() {
	var i int64
	return func() {
		i++
		sp := newSpan("bench/span")
		sp.SetAttr(Int("i", i))
		sp.End()
	}
}

// spanStartEndExport is the same lifecycle with a trace exporter
// installed until tb's cleanup: End additionally encodes and writes
// the JSONL line, which must add no allocation.
func spanStartEndExport(tb testing.TB) func() {
	t := NewTraceWriter(io.Discard, "bench-run", "bench")
	prev := SetTraceExporter(t)
	tb.Cleanup(func() { SetTraceExporter(prev); _ = t.Close() })
	return spanStartEnd(tb)
}

// traceEncode isolates the JSONL encoder: a warmed span with attrs,
// counts and an event, re-encoded every call. This is what keeps
// -trace safe in a daemon.
func traceEncode(tb testing.TB) func() {
	t := NewTraceWriter(io.Discard, "bench-run", "bench")
	tb.Cleanup(func() { _ = t.Close() })
	sp := newSpan("bench/encode")
	sp.SetAttr(String("stage", "simulate"))
	sp.SetAttr(Bool("cache_hit", true))
	sp.SetAttr(Float("rmse", 0.42))
	sp.SetCount("cells", 12345)
	sp.Event("checkpoint")
	sp.End()
	// Warm the scratch buffers so steady state is measured.
	t.writeSpanLocked(sp)
	return func() { t.writeSpanLocked(sp) }
}

// snapshot exports a 20-counter registry; it allocates by design.
func snapshot(testing.TB) func() {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.NewCounter(string(rune('a'+i))+"_total", "").Add(int64(i))
	}
	return func() { _ = r.Snapshot() }
}

// benchOp times one fixture's operation.
func benchOp(b *testing.B, fixture func(testing.TB) func()) {
	op := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkCounterInc(b *testing.B)           { benchOp(b, counterInc) }
func BenchmarkGaugeSet(b *testing.B)             { benchOp(b, gaugeSet) }
func BenchmarkHistogramObserve(b *testing.B)     { benchOp(b, histogramObserve) }
func BenchmarkHistogramObserveSpan(b *testing.B) { benchOp(b, histogramObserveSpan) }
func BenchmarkSpanStartEnd(b *testing.B)         { benchOp(b, spanStartEnd) }
func BenchmarkSpanStartEndExport(b *testing.B)   { benchOp(b, spanStartEndExport) }
func BenchmarkTraceEncode(b *testing.B)          { benchOp(b, traceEncode) }
func BenchmarkSnapshot(b *testing.B)             { benchOp(b, snapshot) }

// TestHotPathsZeroAllocs holds the metric, exemplar, trace-encode and
// trace-propagation hot paths at 0 allocs per op in steady state,
// Snapshot and the span lifecycle at or under their recorded counts
// (9 and spanAllocs), and the exporter at 0 allocs added to a span's
// end.
func TestHotPathsZeroAllocs(t *testing.T) {
	const (
		runs = 1000
		// spanAllocs is the Span struct and its lazy attr storage.
		spanAllocs = 2
	)
	for _, c := range []struct {
		name    string
		fixture func(testing.TB) func()
		max     float64
	}{
		{"Counter.Inc", counterInc, 0},
		{"Gauge.Set", gaugeSet, 0},
		{"Histogram.Observe", histogramObserve, 0},
		{"Histogram.ObserveSpan", histogramObserveSpan, 0},
		{"trace encode", traceEncode, 0},
		{"InjectTrace", traceInject, 0},
		{"ExtractTrace", traceExtract, 0},
		{"Snapshot", snapshot, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(runs, c.fixture(t)); n > c.max {
				t.Errorf("%s allocates %.0f allocs/op, want at most %.0f", c.name, n, c.max)
			}
		})
	}

	// Subtests scope the exporter: it is installed only while the
	// second one runs.
	var bare, exported float64
	t.Run("span end", func(t *testing.T) { bare = testing.AllocsPerRun(runs, spanStartEnd(t)) })
	t.Run("span end exported", func(t *testing.T) { exported = testing.AllocsPerRun(runs, spanStartEndExport(t)) })
	if bare > spanAllocs {
		t.Errorf("span end allocates %.0f allocs/op, want at most %d", bare, spanAllocs)
	}
	if exported != bare {
		t.Errorf("the exporter adds %.0f allocs/op to span end (%.0f without it, %.0f with), want 0",
			exported-bare, bare, exported)
	}
}
