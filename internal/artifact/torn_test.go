package artifact

import (
	"bytes"
	"context"
	"io"
	"os"
	"sync"
	"testing"

	"auditherm/internal/obs"
)

// putFile Puts payload under key and returns the artifact file's path
// and bytes.
func putFile(t *testing.T, st *Store, key Digest, payload []byte) (Info, string, []byte) {
	t.Helper()
	info, err := st.Put(context.Background(), key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.Path(key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return info, path, raw
}

func tornCount() int64 { return obs.Default.CounterValue("auditherm_artifact_local_torn_total") }

// TestStorePutRewritesTornKey: the dedupe path verifies the file it
// finds. A torn file under the key is dropped and written afresh, not
// deduped, and the rewrite reads back intact.
func TestStorePutRewritesTornKey(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := HashBytes([]byte("torn-then-put"))
	payload := []byte("payload the crash tore")
	first, path, raw := putFile(t, st, key, payload)
	if err := os.WriteFile(path, raw[:len(payload)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	deduped := obs.Default.CounterValue("auditherm_artifact_local_deduped_puts_total")
	torn := tornCount()
	encoded := false
	second, err := st.Put(ctx, key, func(w io.Writer) error {
		encoded = true
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !encoded || obs.Default.CounterValue("auditherm_artifact_local_deduped_puts_total") != deduped {
		t.Error("Put deduped a torn artifact instead of rewriting it")
	}
	if got := tornCount(); got != torn+1 {
		t.Errorf("torn counter moved %d, want 1", got-torn)
	}
	if second != first {
		t.Errorf("rewrite returned %+v, first Put %+v", second, first)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, raw) {
		t.Errorf("rewritten file differs from the first Put's (err=%v)", err)
	}
}

// TestTornDropSparesConcurrentPut: a reader that finds a torn file
// unlinks it only while the path still names that file. Here a reader
// holds the torn file open while a Put of the same key drops it and
// renames a complete artifact into place; when the reader then reaches
// the trailer and fails, the new artifact must survive. The concurrent
// half runs Stats and Puts of one torn key at once, for -race.
func TestTornDropSparesConcurrentPut(t *testing.T) {
	ctx := context.Background()
	st, err := OpenLocal(t.TempDir(), LocalOptions{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := HashBytes([]byte("torn-vs-put"))
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	want, path, raw := putFile(t, st, key, payload)
	flipped := append([]byte(nil), raw...)
	flipped[len(payload)/2] ^= 0x10
	tear := func() {
		t.Helper()
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tear()
	stale, err := st.openPayload(key)
	if err != nil {
		t.Fatal(err)
	}
	torn := tornCount()
	if info, err := st.Put(ctx, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil || info != want {
		t.Fatalf("Put over a torn file: %+v, %v", info, err)
	}
	if _, err := io.Copy(io.Discard, stale); !IsNotFound(err) {
		t.Errorf("reader of the torn file returned %v, want a not-found error", err)
	}
	stale.Close()
	if got := tornCount(); got != torn+1 {
		t.Errorf("torn counter moved %d, want 1 (the Put's drop)", got-torn)
	}
	if info, ok, err := st.Stat(ctx, key); err != nil || !ok || info != want {
		t.Fatalf("after the stale reader's drop: Stat %+v ok=%v err=%v, want %+v — it unlinked the new artifact", info, ok, err, want)
	}

	for round := 0; round < 50; round++ {
		tear()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(put bool) {
				defer wg.Done()
				if !put {
					if info, ok, err := st.Stat(ctx, key); err != nil || (ok && info != want) {
						t.Errorf("Stat: %+v ok=%v err=%v", info, ok, err)
					}
					return
				}
				if _, err := st.Put(ctx, key, func(w io.Writer) error {
					_, err := w.Write(payload)
					return err
				}); err != nil {
					t.Error(err)
				}
			}(g%2 == 0)
		}
		wg.Wait()
		if info, ok, err := st.Stat(ctx, key); err != nil || !ok || info != want {
			t.Fatalf("round %d: Stat %+v ok=%v err=%v after the Puts returned", round, info, ok, err)
		}
	}
}

// FuzzLocalStoreTorn damages a published artifact file — truncates it,
// overwrites a span of it or flips one bit — and requires the store to
// serve the original or nothing: Stat returns the original Info or
// misses, and Open plus ReadAll returns exactly the original payload
// or an error. An undamaged file must still hit.
func FuzzLocalStoreTorn(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	key := HashBytes([]byte("fuzz-torn"))
	f.Fuzz(func(t *testing.T, payload []byte, op byte, off uint32, patch []byte) {
		ctx := context.Background()
		// Clear the previous input's artifact, which Put would dedupe.
		path, _ := st.Path(key)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		want, path, raw := putFile(t, st, key, payload)

		damaged := append([]byte(nil), raw...)
		at := int(off % uint32(len(raw)+1))
		switch op % 3 {
		case 0:
			damaged = damaged[:at]
		case 1:
			if end := at + len(patch); end > len(damaged) {
				damaged = append(damaged, make([]byte, end-len(damaged))...)
			}
			copy(damaged[at:], patch)
		case 2:
			damaged[at%len(damaged)] ^= 1 << (op / 3 % 8)
		}
		intact := bytes.Equal(damaged, raw)
		write := func() {
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		write()
		rc, err := st.Open(ctx, key)
		if err == nil {
			var data []byte
			data, err = io.ReadAll(rc)
			rc.Close()
			if err == nil && !bytes.Equal(data, payload) {
				t.Fatalf("Open served %d foreign bytes without an error", len(data))
			}
		}
		if err != nil && intact {
			t.Fatalf("Open of an undamaged artifact: %v", err)
		}

		write()
		info, ok, err := st.Stat(ctx, key)
		switch {
		case err != nil:
			t.Fatalf("Stat: %v", err)
		case ok && info != want:
			t.Fatalf("Stat served %+v, want %+v or a miss", info, want)
		case !ok && intact:
			t.Fatal("Stat missed an undamaged artifact")
		}
	})
}
