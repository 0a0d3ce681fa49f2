// Package par is auditherm's coarse-grained parallel-execution layer:
// a small, zero-dependency bounded worker pool behind one call,
// ForEach. Two callers fan out over it: the pipeline's dependency
// resolution (which is how fleet members and DAG branches run
// concurrently) and sysid.FitDecoupled's per-sensor fits. The numeric
// kernels underneath (mat, cluster, building) are serial.
//
// Design contract:
//
//   - Bounded workers. Every invocation runs on at most `workers`
//     goroutines (0 selects the process default, see DefaultWorkers).
//     Tasks are claimed dynamically off a single atomic cursor, so
//     uneven task costs balance automatically.
//   - Index-keyed outputs. Tasks write caller-owned slots keyed by task
//     index, so results do not depend on the worker count. ForEach
//     reports the first error observed, which may depend on
//     scheduling; callers that need a deterministic error collect
//     errors per index and report the lowest (as FitDecoupled does).
//   - Panic capture and rethrow. A panicking task does not crash an
//     anonymous worker goroutine (which would kill the process with a
//     useless stack); the panic is captured with its stack and
//     rethrown in the calling goroutine as a *PanicError.
//   - Context cancellation. ForEach stops claiming new tasks once ctx
//     is done and returns ctx.Err(); already-running tasks finish.
//
// Instrumentation (auditherm_par_* series on the obs Default registry)
// counts dispatched tasks and parallel batches and tracks live queue
// depth, busy workers and per-worker busy time.
package par

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"auditherm/internal/obs"
)

// EnvParallelism is the environment variable consulted at process start
// for the default worker count (the -parallelism flag of the CLIs takes
// precedence; both fall back to runtime.GOMAXPROCS(0)).
const EnvParallelism = "AUDITHERM_PARALLELISM"

var defaultWorkers atomic.Int64

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv(EnvParallelism); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide default worker count used
// when a call passes workers <= 0.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// SetDefaultWorkers sets the process-wide default worker count and
// returns the previous value. n <= 0 resets to runtime.GOMAXPROCS(0).
func SetDefaultWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// PanicError wraps a panic captured inside a worker; it is rethrown
// (via panic) in the goroutine that invoked the parallel helper so the
// failure surfaces where the work was requested.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("par: task panicked: %v", e.Value) }

// ForEach runs fn(i) for every i in [0, n) on up to `workers`
// goroutines (0 selects the default). It stops claiming new indices on
// the first error or when ctx is done, and returns the first error
// observed. Captured task panics are rethrown as *PanicError. ctx may
// be nil: the batch is then not cancellable and opens no worker spans.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	batchesTotal.Inc()
	tasksTotal.Add(int64(n))
	queueDepth.Add(float64(n))
	workersBusy.Add(float64(w))

	// When the submitting context carries a span, each worker opens a
	// child span so the trace attributes batch work to the workers that
	// ran it.
	var parent *obs.Span
	if ctx != nil {
		parent = obs.SpanFromContext(ctx)
	}

	var (
		cursor atomic.Int64
		halt   atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			halt.Store(true)
		})
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			var wsp *obs.Span
			claimed := int64(0)
			if parent != nil {
				wsp = parent.StartChild("par/worker")
				wsp.SetAttr(obs.Int("worker", int64(g)))
			}
			// Defers run LIFO: the recover below fires before wg.Done,
			// so `first` is always set before Wait returns.
			defer func() {
				if wsp != nil {
					wsp.SetCount("tasks", claimed)
					wsp.End()
				}
				workerBusySeconds.ObserveSpan(time.Since(start).Seconds(), wsp)
				if r := recover(); r != nil {
					fail(&PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			for !halt.Load() {
				if ctx != nil {
					select {
					case <-ctx.Done():
						fail(ctx.Err())
						return
					default:
					}
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				queueDepth.Add(-1) // claimed (decrement now so a panicking task cannot strand depth)
				claimed++
				if err := fn(i); err != nil {
					if wsp != nil {
						wsp.SetError(err)
					}
					fail(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	workersBusy.Add(-float64(w))
	// An aborted batch leaves unclaimed tasks on the queue gauge.
	if claimed := cursor.Load(); claimed < int64(n) {
		queueDepth.Add(float64(claimed) - float64(n))
	}
	if pe, ok := first.(*PanicError); ok {
		panic(pe)
	}
	return first
}
