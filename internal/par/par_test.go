package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", DefaultWorkers())
	}
	prev := SetDefaultWorkers(5)
	defer SetDefaultWorkers(prev)
	if got := DefaultWorkers(); got != 5 {
		t.Fatalf("after SetDefaultWorkers(5): %d", got)
	}
	if back := SetDefaultWorkers(prev); back != 5 {
		t.Fatalf("SetDefaultWorkers returned %d, want 5", back)
	}
}

// TestForEachCoversAllIndices checks every index runs exactly once at
// several worker counts, including counts above the task count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		const n = 257
		var hits [n]atomic.Int64
		err := ForEach(context.Background(), w, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, got)
			}
		}
	}
}

func TestForEachFirstErrorStopsClaiming(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("stop")
	err := ForEach(context.Background(), 4, 10_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n := ran.Load(); n == 10_000 {
		t.Errorf("all %d tasks ran despite early error", n)
	}
}

// TestForEachCancellation exercises context cancellation mid-batch:
// the pool must stop claiming tasks and report ctx.Err().
func TestForEachCancellation(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, w, 100_000, func(i int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n == 100_000 {
			t.Errorf("workers=%d: cancellation did not stop the batch", w)
		}
	}
}

// TestPanicCaptureRethrow checks a panicking task surfaces as a
// *PanicError panic in the calling goroutine, with the worker stack
// attached, at both serial and parallel worker counts.
func TestPanicCaptureRethrow(t *testing.T) {
	for _, w := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic propagated", w)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", w, r)
				}
				if fmt.Sprint(pe.Value) != "kaboom" {
					t.Errorf("workers=%d: panic value %v", w, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: captured panic has no stack", w)
				}
			}()
			ForEach(context.Background(), w, 64, func(i int) error {
				if i == 13 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

// TestPoolMetricsAdvance checks the auditherm_par_* series move when a
// batch actually goes parallel, and that gauges return to zero.
func TestPoolMetricsAdvance(t *testing.T) {
	b0 := batchesTotal.Value()
	t0 := tasksTotal.Value()
	err := ForEach(context.Background(), 4, 100, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if batchesTotal.Value() != b0+1 {
		t.Errorf("batches %d, want %d", batchesTotal.Value(), b0+1)
	}
	if tasksTotal.Value() != t0+100 {
		t.Errorf("tasks %d, want %d", tasksTotal.Value(), t0+100)
	}
	if d := queueDepth.Value(); d != 0 {
		t.Errorf("queue depth %v after batch, want 0", d)
	}
	if b := workersBusy.Value(); b != 0 {
		t.Errorf("busy workers %v after batch, want 0", b)
	}
}
