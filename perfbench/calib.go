package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// The host this benchmark runs on is shared: its CPUs run in fast and
// slow phases lasting seconds to minutes, in which a fixed loop's time
// can double, and every timing of a run moves with the phase. So a run
// also times a fixed calibration burst — the benchmark's own code, which
// no change to auditherm can speed up — before each measured operation,
// and reports its timing metrics at the calibration's reference speed:
//
//	reported time = measured time × calRef / median burst time of the run
//
// (a rate is divided by the same factor). On a host where the burst
// takes calRef the reported figures are the measured ones; a change to
// the program moves them exactly as it moves the measured times.

// calRef is the burst's reference time: its usual value on a 2-vCPU
// x86-64 VM (go1.24) outside slow phases.
const calRef = 0.0085

const (
	calN    = 96      // calibration matrix side
	calRows = 1 << 18 // streamed float64s (2 MiB)
	calReps = 8       // kernel repetitions per timing
	calRuns = 12      // timings per burst; the burst is their minimum
)

// hostClock collects a run's calibration bursts.
type hostClock struct {
	bursts []float64
	buf    *calBuf
}

// host is the run's clock; every workload bursts on it.
var host hostClock

type calBuf struct{ a, c, stream []float64 }

// burst collects garbage, then times calReps repetitions of the
// calibration kernel calRuns times on one goroutine. It records and
// returns the fastest of those timings in seconds: an interruption (the
// operating system's deferred work after a store is deleted, another
// thread of this process) lengthens one timing, while a slow phase of
// the host lengthens them all.
func (h *hostClock) burst() float64 {
	if h.buf == nil {
		b := calBuf{make([]float64, calN*calN), make([]float64, calN*calN), make([]float64, calRows)}
		for i := range b.a {
			b.a[i] = float64(i%13) * 0.01
		}
		for i := range b.stream {
			b.stream[i] = float64(i % 7)
		}
		h.buf = &b
	}
	runtime.GC()
	d := math.Inf(1)
	for r := 0; r < calRuns; r++ {
		t0 := time.Now()
		for i := 0; i < calReps; i++ {
			calKernel(*h.buf)
		}
		d = min(d, time.Since(t0).Seconds())
	}
	h.bursts = append(h.bursts, d)
	return d
}

// calKernel is one repetition: a dense matrix product into c (compute,
// cache-resident) and a dependent pass over a 2 MiB stream (memory).
func calKernel(b calBuf) {
	for i := 0; i < calN; i++ {
		row := b.c[i*calN : (i+1)*calN]
		for k := 0; k < calN; k++ {
			x := b.a[i*calN+k]
			for j, y := range b.a[k*calN : (k+1)*calN] {
				row[j] += x * y
			}
		}
	}
	s := b.c[0] * 1e-9
	for i, v := range b.stream {
		s = s*0.5 + v
		b.stream[i] = s
	}
}

// scale is calRef over the run's median burst: measured seconds times
// scale are seconds at the reference speed.
func (h *hostClock) scale() float64 {
	if len(h.bursts) == 0 {
		return 1
	}
	return calRef / median(h.bursts)
}

// normalize puts the end-to-end timing metrics other than setup_s at
// the reference speed and reports the calibration on standard error.
// Set-up is short and runs before the load, so it is scaled by the
// burst just before it instead (see toRef).
func (h *hostClock) normalize(v map[string]float64) {
	s := h.scale()
	fmt.Fprintf(os.Stderr, "host: %d calibration bursts, median %.4f s (min %.4f, max %.4f), scale %.4f\n",
		len(h.bursts), median(h.bursts), percentile(h.bursts, 0), percentile(h.bursts, 100), s)
	for _, name := range []string{"latency_p50_ms", "latency_tail_ms"} {
		if x, ok := v[name]; ok {
			v[name] = x * s
		}
	}
	if x, ok := v["throughput_per_s"]; ok {
		v["throughput_per_s"] = x / s
	}
}

// toRef puts a time measured right after a burst of the given length
// at the reference speed.
func toRef(seconds, burst float64) float64 { return seconds * calRef / burst }
