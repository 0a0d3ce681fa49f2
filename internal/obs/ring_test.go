package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTraceRingKeepsMetaAndNewestLines(t *testing.T) {
	r := NewTraceRing(3)
	if len(r.Snapshot()) != 0 {
		t.Fatal("empty ring has a snapshot")
	}
	fmt.Fprint(r, "meta\n")
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(r, "line%d\n", i)
	}
	if got, want := string(r.Snapshot()), "meta\nline3\nline4\nline5\n"; got != want {
		t.Errorf("snapshot = %q, want %q", got, want)
	}

	// Before the ring wraps, lines come out in write order.
	r = NewTraceRing(3)
	fmt.Fprint(r, "meta\nline1\nline2\n")
	if got, want := string(r.Snapshot()), "meta\nline1\nline2\n"; got != want {
		t.Errorf("unwrapped snapshot = %q, want %q", got, want)
	}
}

func TestTraceRingReassemblesSplitLines(t *testing.T) {
	stream := "meta line\nfirst span\nsecond span\nthird span\n"
	for _, chunk := range []int{1, 2, 3, 7, len(stream)} {
		r := NewTraceRing(2)
		for s := stream; len(s) > 0; {
			n := min(chunk, len(s))
			if w, err := r.Write([]byte(s[:n])); w != n || err != nil {
				t.Fatalf("Write = %d, %v", w, err)
			}
			s = s[n:]
		}
		if got, want := string(r.Snapshot()), "meta line\nsecond span\nthird span\n"; got != want {
			t.Errorf("chunk %d: snapshot = %q, want %q", chunk, got, want)
		}
	}

	// A line still missing its newline stays out of the snapshot.
	r := NewTraceRing(2)
	fmt.Fprint(r, "meta\ndone\nhal")
	if got := string(r.Snapshot()); got != "meta\ndone\n" {
		t.Errorf("snapshot with a partial line = %q", got)
	}
	fmt.Fprint(r, "f\n")
	if got := string(r.Snapshot()); got != "meta\ndone\nhalf\n" {
		t.Errorf("snapshot after the partial line completed = %q", got)
	}
}

// TestTraceRingConcurrentExport: 8 goroutines end spans through one
// TraceFile into the ring while another flushes and snapshots it —
// the race-gate coverage for the /debug/trace path. Every snapshot is
// a meta line plus whole span lines, and the final one keeps exactly
// the ring's capacity.
func TestTraceRingConcurrentExport(t *testing.T) {
	const workers, perWorker, capacity = 8, 200, 64
	ring := NewTraceRing(capacity)
	tf := NewTraceWriter(ring, "ring-run", "ring-test")
	root := newSpan("root")
	root.SetSink(tf)

	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			if err := tf.Flush(); err != nil {
				t.Error(err)
				return
			}
			if _, err := checkRingSnapshot(ring.Snapshot(), capacity); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.StartChild("work")
				sp.SetAttr(Int("worker", int64(w)))
				sp.SetCount("i", int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	reader.Wait()

	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := checkRingSnapshot(ring.Snapshot(), capacity); err != nil || n != capacity {
		t.Errorf("final snapshot holds %d spans (%v), want %d", n, err, capacity)
	}
	if got := tf.Spans(); got != workers*perWorker {
		t.Errorf("exported %d spans, want %d", got, workers*perWorker)
	}
}

// checkRingSnapshot checks a snapshot is a meta line followed by at
// most capacity span lines, and returns the span count.
func checkRingSnapshot(snap []byte, capacity int) (int, error) {
	if len(snap) == 0 {
		return 0, nil // nothing flushed yet
	}
	lines := bytes.SplitAfter(snap, []byte("\n"))
	if last := lines[len(lines)-1]; len(last) != 0 {
		return 0, fmt.Errorf("snapshot ends mid-line: %q", last)
	}
	lines = lines[:len(lines)-1]
	var meta TraceMeta
	if err := json.Unmarshal(lines[0], &meta); err != nil || meta.Type != "meta" || meta.RunID != "ring-run" {
		return 0, fmt.Errorf("snapshot starts with %q, want the meta line", lines[0])
	}
	for _, l := range lines[1:] {
		var sp struct{ Type, Name string }
		if err := json.Unmarshal(l, &sp); err != nil || sp.Type != "span" || sp.Name != "work" {
			return 0, fmt.Errorf("unexpected line in snapshot: %q", l)
		}
	}
	if n := len(lines) - 1; n > capacity {
		return 0, fmt.Errorf("snapshot holds %d spans, ring capacity is %d", n, capacity)
	}
	return len(lines) - 1, nil
}
