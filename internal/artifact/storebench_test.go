package artifact

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The sharded store against the design it replaced: concurrent mixed
// Put/Get at 8 workers over a 64-key space of 4 KiB payloads, half of
// the keys present before the stream starts.
const (
	mixedKeyspace = 64
	mixedPayload  = 4096
	mixedWorkers  = 8
	// minShardedSpeedup is the floor on flat time per op over sharded
	// time per op.
	minShardedSpeedup = 2.0
)

// kvStore is the surface the mixed stream drives, so the sharded
// backend and the flat reference run the identical op stream.
type kvStore interface {
	put(key Digest, data []byte) error
	get(key Digest) ([]byte, error) // miss -> nil, nil
}

// shardedKV adapts the real sharded backend.
type shardedKV struct{ st *Store }

func (s shardedKV) put(key Digest, data []byte) error {
	_, err := s.st.Put(context.Background(), key, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}

func (s shardedKV) get(key Digest) ([]byte, error) {
	rc, err := s.st.Open(context.Background(), key)
	if err != nil {
		if IsNotFound(err) {
			return nil, nil
		}
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// flatStore is the pre-sharding reference design: one flat directory,
// one global mutex held across the whole file operation (content hash
// + write + rename on Put, open + read on Get). Like Store.Put it does
// not fsync, and it pays the same digest work; what it lacks is the
// sharded store's concurrency (per-shard locks, lock-free reads) and
// its content-addressed dedupe of repeat Puts.
type flatStore struct {
	mu  sync.Mutex
	dir string
}

func (f *flatStore) put(key Digest, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// A content-addressed store computes the payload digest on every
	// Put; the serial design pays it under the global lock.
	_ = HashBytes(data)
	tmp, err := os.CreateTemp(f.dir, ".tmp-flat-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(f.dir, string(key)))
}

func (f *flatStore) get(key Digest) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(f.dir, string(key)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

func mixedKeys() ([]Digest, [][]byte) {
	keys := make([]Digest, mixedKeyspace)
	payloads := make([][]byte, mixedKeyspace)
	for i := range keys {
		keys[i] = HashBytes([]byte(fmt.Sprintf("bench-store-%d", i)))
		p := bytes.Repeat([]byte{byte(i + 1)}, mixedPayload)
		copy(p, fmt.Sprintf("payload-%02d", i))
		payloads[i] = p
	}
	return keys, payloads
}

// seedMixed writes every even key, the keys the stream's Puts repeat.
func seedMixed(tb testing.TB, kv kvStore) ([]Digest, [][]byte) {
	tb.Helper()
	keys, payloads := mixedKeys()
	for i := 0; i < len(keys); i += 2 {
		if err := kv.put(keys[i], payloads[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return keys, payloads
}

// driveMixed runs ops operations of the mixed stream from mixedWorkers
// goroutines. Operations alternate Put and Get by a shared atomic
// counter, so the mix does not depend on scheduling. Op n touches key
// n mod mixedKeyspace: every Put (even n) repeats a seeded key, and
// every Get (odd n) misses on a key nothing writes.
func driveMixed(tb testing.TB, kv kvStore, keys []Digest, payloads [][]byte, ops int) {
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mixedWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op := idx.Add(1)
				if op > int64(ops) {
					return
				}
				i := int(op) % mixedKeyspace
				if op%2 == 0 {
					if err := kv.put(keys[i], payloads[i]); err != nil {
						tb.Error(err)
						return
					}
					continue
				}
				if _, err := kv.get(keys[i]); err != nil {
					tb.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchMixed(b *testing.B, kv kvStore) {
	keys, payloads := seedMixed(b, kv)
	b.ResetTimer()
	driveMixed(b, kv, keys, payloads, b.N)
}

func BenchmarkShardedMixedPutGet(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchMixed(b, shardedKV{st})
}

func BenchmarkFlatMixedPutGet(b *testing.B) {
	benchMixed(b, &flatStore{dir: b.TempDir()})
}

// TestShardedMixedPutGetBeatsFlat holds the sharded store at
// minShardedSpeedup times the flat reference's throughput on the same
// fixed-length mixed stream.
func TestShardedMixedPutGetBeatsFlat(t *testing.T) {
	const ops = 2000
	perOp := func(kv kvStore) time.Duration {
		keys, payloads := seedMixed(t, kv)
		t0 := time.Now()
		driveMixed(t, kv, keys, payloads, ops)
		return time.Since(t0) / ops
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sharded := perOp(shardedKV{st})
	flat := perOp(&flatStore{dir: t.TempDir()})
	speedup := float64(flat) / float64(sharded)
	t.Logf("sharded %v/op, flat %v/op: %.1fx", sharded, flat, speedup)
	if speedup < minShardedSpeedup {
		t.Errorf("sharded mixed Put/Get is %.2fx the flat store, below the %.0fx floor", speedup, minShardedSpeedup)
	}
}

// memWarmGet is the hot-tier steady state: a byte-cache hit on a
// warmed key, which touches no filesystem.
func memWarmGet(tb testing.TB) func() {
	m := NewMem(1 << 20)
	keys, payloads := mixedKeys()
	key, payload := keys[0], payloads[0]
	m.PutBytes(key, payload, Info{Key: key, Content: HashBytes(payload), Bytes: int64(len(payload))})
	return func() {
		if _, _, ok := m.GetBytes(key); !ok {
			tb.Fatal("warm get missed")
		}
	}
}

func BenchmarkMemWarmGet(b *testing.B) {
	get := memWarmGet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// TestMemWarmGetZeroAllocs holds a memory-tier hit at 0 allocs per op.
func TestMemWarmGetZeroAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, memWarmGet(t)); n != 0 {
		t.Errorf("memory-tier warm GetBytes allocates %.0f allocs/op, want 0", n)
	}
}
