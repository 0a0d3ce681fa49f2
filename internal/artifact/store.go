// Package artifact is the content-addressed artifact storage behind the
// pipeline engine's warm cache, plus the versioned JSON codecs that
// generalize the sysid/persist.go pattern to datasets, cluster
// assignments and selections.
//
// An artifact is addressed by a Key: the SHA-256 of the stage name,
// the codec name and version, the stage's config hash and the content
// digests of its input artifacts. Two runs that would execute the same
// stage over the same inputs therefore compute the same key and the
// second one can skip the work and rehydrate the first one's output
// bit-identically.
//
// Storage is pluggable behind the Backend interface (see backend.go):
// an in-memory hot tier (Mem), this file's sharded local disk store
// (Store), a remote shared cache (Remote) and their read-through
// composition (Tiered).
//
// The local store is a cache: every artifact can be recomputed from its
// stage function. A Put streams through a temp file in the key's shard
// directory and is renamed into place only once fully written, so a
// live reader never sees a partial artifact, and a killed run loses
// nothing (the page cache outlives the process) — re-invoking the run
// resumes from the last completed stage. Puts are not fsynced. Instead
// every artifact file ends with a trailer holding its payload's
// SHA-256, and every read checks it: an artifact that an OS crash or a
// power loss tore, or any other damage, reads as a miss, is unlinked
// and is recomputed to the same bytes. No torn artifact is served.
package artifact

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Digest is a lowercase hex SHA-256.
type Digest string

// Short returns a 12-character prefix for display.
func (d Digest) Short() string {
	if len(d) <= 12 {
		return string(d)
	}
	return string(d[:12])
}

// Key derives the content-addressed cache key of one stage execution:
// SHA-256 over the stage name, the codec identity (name@version), the
// stage's config hash and the content digests of its inputs, all
// length-prefixed so no two field sequences collide.
func Key(stage, codecName string, codecVersion int, configHash string, inputs []Digest) Digest {
	h := sha256.New()
	field := func(s string) {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	field(stage)
	field(fmt.Sprintf("%s@%d", codecName, codecVersion))
	field(configHash)
	for _, in := range inputs {
		field(string(in))
	}
	return Digest(hex.EncodeToString(h.Sum(nil)))
}

// HashConfig hashes a flat string map deterministically (sorted
// key=value lines), the same scheme the obs run manifest uses for its
// config_hash field.
func HashConfig(cfg map[string]string) string {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, cfg[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashBytes returns the content digest of a byte slice.
func HashBytes(b []byte) Digest {
	sum := sha256.Sum256(b)
	return Digest(hex.EncodeToString(sum[:]))
}

// HashFile returns the content digest of a file's bytes.
func HashFile(path string) (Digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("artifact: hashing %s: %w", path, err)
	}
	return Digest(hex.EncodeToString(h.Sum(nil))), nil
}

// Info describes one stored artifact.
type Info struct {
	// Key is the cache key the artifact is stored under.
	Key Digest
	// Content is the digest of the stored bytes.
	Content Digest
	// Bytes is the stored size.
	Bytes int64
}

// trailerMagic opens the trailer that ends every local artifact file:
// the magic, then the payload's raw SHA-256. Info describes the
// payload alone, so the trailer moves no digest.
const trailerMagic = "\x00sha256\x00"

// trailerLen is the size of that trailer.
const trailerLen = int64(len(trailerMagic) + sha256.Size)

// numShards is the two-hex-prefix shard fan-out: artifacts live under
// <root>/<key[:2]>/<key>, and one mutex guards each shard's membership
// (rename-into-place and evict-unlink), so concurrent engines contend
// only when they touch the same 1/256th of the keyspace.
const numShards = 256

// LocalOptions parameterizes OpenLocal.
type LocalOptions struct {
	// Budget bounds the store's total artifact file bytes (payloads
	// plus their trailers); past it the least-recently-used artifacts
	// are evicted after each Put. 0
	// disables eviction (the store grows without bound, and no index
	// is maintained). The artifact just written by a Put is never its
	// own eviction victim, so the budget holds whenever it is at least
	// the largest single artifact.
	Budget int64
}

// Store is the sharded local disk backend: content-addressed artifacts
// under <root>/<key[:2]>/<key>, each file the payload plus its digest
// trailer, temp files written in the shard directory so the final
// rename stays on one filesystem. Writes are independent and atomic;
// per-shard locks serialize only same-shard membership changes.
//
// With a byte Budget the store keeps an in-memory LRU index (seeded
// from file mtimes at Open, refreshed on every access) and evicts
// atime-ordered past the budget. Eviction is safe against concurrent
// reads: an unlink never invalidates an already-open descriptor, and a
// reader that loses the open race simply misses — the pipeline engine
// recomputes an evicted key from its stage function.
type Store struct {
	root   string
	budget int64

	shards [numShards]sync.Mutex

	// emu guards the eviction index (only maintained when budget > 0).
	emu   sync.Mutex
	total int64
	order *list.List // front = most recently used; values are *storeEntry
	index map[Digest]*list.Element

	// closed stops the background sweep; sweepDone closes when it has
	// finished (Close waits so no goroutine outlives the store).
	closed    chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
}

type storeEntry struct {
	key   Digest
	bytes int64
}

// tempPrefix names in-progress atomic writes; see writeAtomicStaged.
const tempPrefix = ".tmp-artifact-"

// StaleTempAge is the safety window for the orphan sweep on Open: a
// temp file older than this cannot belong to a live write (artifact
// encodes take seconds, not hours) and is debris from a crashed or
// killed run. Younger temp files are left alone so a concurrent
// writer's in-progress Put is never yanked out from under it.
const StaleTempAge = time.Hour

// Open creates (if needed) and returns an unbounded store at dir —
// the compatibility constructor; OpenLocal adds the eviction budget.
func Open(dir string) (*Store, error) {
	return OpenLocal(dir, LocalOptions{})
}

// OpenLocal creates (if needed) and returns the store at dir. Stale
// temp files from crashed runs are swept in the background: a process
// killed mid-Put leaves its .tmp-artifact-* file behind (the deferred
// cleanup never runs), and without the sweep those orphans accumulate
// in the store root forever. The sweep runs on its own goroutine so a
// daemon opening a large store serves its first request immediately
// instead of waiting on a full ReadDir; Close (or process exit) stops
// it. With a positive Budget the existing artifacts are indexed
// synchronously (mtime-ordered) so eviction accounting is exact from
// the first Put.
func OpenLocal(dir string, opts LocalOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store root: %w", err)
	}
	s := &Store{
		root:      dir,
		budget:    opts.Budget,
		closed:    make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	if s.budget > 0 {
		s.order = list.New()
		s.index = make(map[Digest]*list.Element)
		if err := s.buildIndex(); err != nil {
			return nil, err
		}
		s.evictOver("")
	}
	go s.sweepStaleTemp(time.Now())
	return s, nil
}

// Name implements Backend.
func (s *Store) Name() string { return "local:" + s.root }

// Close stops the background sweep. The store's files stay on disk.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.sweepDone
	return nil
}

// sweepStaleTemp removes temp files older than StaleTempAge from the
// store root (WriteFileAtomic debris, pre-sharding stores) and from
// every shard directory (where Put stages its writes). Best-effort:
// sweep errors are ignored (a concurrently finishing rename, a
// permission oddity) — the next Open retries. The closed guard stops
// the sweep mid-walk when the store is closed.
func (s *Store) sweepStaleTemp(now time.Time) {
	defer close(s.sweepDone)
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	sweepDir := func(dir string, entries []os.DirEntry) bool {
		for _, e := range entries {
			select {
			case <-s.closed:
				return false
			default:
			}
			if e.IsDir() || !strings.HasPrefix(e.Name(), tempPrefix) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			if now.Sub(info.ModTime()) < StaleTempAge {
				continue
			}
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				sweepOrphansTotal.Inc()
			}
		}
		return true
	}
	if !sweepDir(s.root, entries) {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) != 2 {
			continue
		}
		shard := filepath.Join(s.root, e.Name())
		files, err := os.ReadDir(shard)
		if err != nil {
			continue
		}
		if !sweepDir(shard, files) {
			return
		}
	}
}

// waitSweep blocks until the background orphan sweep has finished
// (tests synchronize on it; production code never needs to).
func (s *Store) waitSweep() { <-s.sweepDone }

// buildIndex seeds the eviction index from the artifacts already on
// disk, ordered by mtime so the stalest files are first in line.
func (s *Store) buildIndex() error {
	type seed struct {
		key   Digest
		bytes int64
		mtime time.Time
	}
	var seeds []seed
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("artifact: indexing store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			key := Digest(f.Name())
			if ValidateKey(key) != nil {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			seeds = append(seeds, seed{key: key, bytes: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime.Before(seeds[j].mtime) })
	for _, sd := range seeds {
		s.index[sd.key] = s.order.PushFront(&storeEntry{key: sd.key, bytes: sd.bytes})
		s.total += sd.bytes
	}
	localBytes.Set(float64(s.total))
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// shardFor maps a validated key to its shard lock.
func (s *Store) shardFor(key Digest) *sync.Mutex {
	return &s.shards[hexByte(key[0])<<4|hexByte(key[1])]
}

func hexByte(c byte) int {
	if c <= '9' {
		return int(c - '0')
	}
	return int(c-'a') + 10
}

// Path returns where the artifact for key lives (whether or not it
// exists yet), or an error for a malformed key: short or non-hex keys
// must fail, never silently shard.
func (s *Store) Path(key Digest) (string, error) {
	if err := ValidateKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, string(key[:2]), string(key)), nil
}

// touch marks key most-recently-used in the eviction index (no-op
// without a budget).
func (s *Store) touch(key Digest) {
	if s.budget <= 0 {
		return
	}
	s.emu.Lock()
	if el, ok := s.index[key]; ok {
		s.order.MoveToFront(el)
	}
	s.emu.Unlock()
}

// Has reports whether an artifact file for key is present. It does not
// verify the file: a torn artifact is present here and absent to Stat
// and Open.
func (s *Store) Has(_ context.Context, key Digest) bool {
	path, err := s.Path(key)
	if err != nil {
		return false
	}
	st, err := os.Stat(path)
	if err != nil || !st.Mode().IsRegular() {
		return false
	}
	s.touch(key)
	return true
}

// Stat reads the stored artifact for key through its trailer check and
// returns its info, or ok=false when it is absent or torn (a torn file
// is unlinked first, so the stage recomputes).
func (s *Store) Stat(_ context.Context, key Digest) (Info, bool, error) {
	info, err := s.check(key)
	if err != nil {
		if IsNotFound(err) {
			localMissesTotal.Inc()
			return Info{}, false, nil
		}
		return Info{}, false, err
	}
	localHitsTotal.Inc()
	s.touch(key)
	return info, true, nil
}

// Open returns a reader over the payload stored for key, which checks
// the trailer when it reaches EOF: a torn artifact fails that read with
// an error IsNotFound accepts, after the file is unlinked. The
// descriptor stays valid even if the key is evicted mid-read.
func (s *Store) Open(_ context.Context, key Digest) (io.ReadCloser, error) {
	r, err := s.openPayload(key)
	if err != nil {
		return nil, err
	}
	s.touch(key)
	return r, nil
}

// check reads key's whole payload through its trailer check and returns
// its info.
func (s *Store) check(key Digest) (Info, error) {
	r, err := s.openPayload(key)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	if _, err := io.Copy(io.Discard, r); err != nil {
		return Info{}, err
	}
	return Info{Key: key, Content: r.content, Bytes: r.size}, nil
}

// openPayload opens key's artifact file for a checked read. A file too
// short to hold a trailer is torn, and is dropped here.
func (s *Store) openPayload(key Digest) (*payloadReader, error) {
	path, err := s.Path(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: opening %s: %w", key.Short(), err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("artifact: opening %s: %w", key.Short(), err)
	}
	r := &payloadReader{s: s, key: key, f: f, fi: fi, h: sha256.New(), size: fi.Size() - trailerLen}
	if r.size < 0 {
		err := r.torn("shorter than a trailer")
		f.Close()
		return nil, err
	}
	r.left = r.size
	return r, nil
}

// payloadReader reads a local artifact's payload, hashing it, and at
// EOF checks the trailer against that hash.
type payloadReader struct {
	s    *Store
	key  Digest
	f    *os.File
	fi   os.FileInfo // of f, for dropTorn
	h    hash.Hash
	size int64 // payload bytes
	left int64 // payload bytes not yet read
	// content is the payload's digest, set once the trailer matched;
	// end is what every Read returns after the payload.
	content Digest
	end     error
}

// Size reports the payload's length, so a decoder can size its buffer
// once.
func (r *payloadReader) Size() int64 { return r.size }

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		if r.end == nil {
			r.end = r.checkTrailer()
		}
		return 0, r.end
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.f.Read(p)
	r.h.Write(p[:n])
	r.left -= int64(n)
	if err == io.EOF {
		r.end = r.torn("cut short after open")
		err = r.end
	}
	return n, err
}

// checkTrailer reads the trailer after the payload and returns io.EOF
// when it holds the payload's digest.
func (r *payloadReader) checkTrailer() error {
	var trailer [trailerLen]byte
	if _, err := io.ReadFull(r.f, trailer[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return r.torn("trailer cut short after open")
		}
		return fmt.Errorf("artifact: reading %s: %w", r.key.Short(), err)
	}
	sum := r.h.Sum(nil)
	switch {
	case string(trailer[:len(trailerMagic)]) != trailerMagic:
		return r.torn("no digest trailer")
	case !bytes.Equal(trailer[len(trailerMagic):], sum):
		return r.torn("payload does not match its digest trailer")
	}
	r.content = Digest(hex.EncodeToString(sum))
	return io.EOF
}

// torn drops the artifact and returns the error its read fails with.
func (r *payloadReader) torn(why string) error {
	r.s.dropTorn(r.key, r.fi)
	return fmt.Errorf("artifact: %s torn (%s): %w", r.key.Short(), why, &notFoundError{key: r.key, tier: "local"})
}

func (r *payloadReader) Close() error { return r.f.Close() }

// dropTorn unlinks key's torn artifact file and drops it from the
// eviction index. It holds the shard lock, and unlinks only while the
// path still names fi, the file that failed the check: a concurrent Put
// of the same key may just have renamed a complete artifact into place.
func (s *Store) dropTorn(key Digest, fi os.FileInfo) {
	path := filepath.Join(s.root, string(key[:2]), string(key))
	mu := s.shardFor(key)
	mu.Lock()
	defer mu.Unlock()
	if cur, err := os.Lstat(path); err != nil || !os.SameFile(cur, fi) {
		return
	}
	if os.Remove(path) != nil {
		return
	}
	localTornTotal.Inc()
	s.unindex(key)
}

// Put writes an artifact under key atomically: the encoder streams
// into a temp file in the key's shard directory, the payload's digest
// trailer follows it, and the file is renamed into place only on
// success. It is not fsynced: an encoder error or a killed process
// leaves no partial artifact behind, and an artifact that an OS crash
// tears reads as a miss. The returned Info carries the content digest
// and size of the payload. With a budget, Put then evicts
// least-recently-used artifacts (never the one just written) until the
// store's files fit again.
func (s *Store) Put(_ context.Context, key Digest, encode func(io.Writer) error) (Info, error) {
	final, err := s.Path(key)
	if err != nil {
		return Info{}, err
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return Info{}, fmt.Errorf("artifact: creating shard dir: %w", err)
	}
	// Content-addressed dedupe: the key names its payload, so
	// re-Putting a present key whose file checks out against its
	// trailer buys nothing — skip the write, the way git leaves
	// already-present objects alone. A torn file was dropped by the
	// check, and one that vanished mid-check (a concurrent eviction) is
	// gone: either way write it fresh.
	if info, err := s.check(key); err == nil {
		now := time.Now()
		_ = os.Chtimes(final, now, now) // best-effort recency for reopened stores
		s.touch(key)
		localDedupedPutsTotal.Inc()
		return info, nil
	}
	info := Info{Key: key}
	// Encode outside the shard lock — only the publish rename and the
	// index update need mutual exclusion with same-shard evictions. The
	// temp file lives in the shard directory, not the root: temp create
	// and publish rename then contend on that shard's directory inode
	// alone, so concurrent Puts to different shards overlap fully in
	// the kernel.
	err = writeAtomicStaged(filepath.Dir(final), final, false, func(w io.Writer) error {
		h := sha256.New()
		cw := &countWriter{w: io.MultiWriter(w, h)}
		if err := encode(cw); err != nil {
			return err
		}
		trailer := h.Sum([]byte(trailerMagic))
		info.Content = Digest(hex.EncodeToString(trailer[len(trailerMagic):]))
		info.Bytes = cw.n
		_, err := w.Write(trailer)
		return err
	}, func(publish func() error) error {
		mu := s.shardFor(key)
		mu.Lock()
		defer mu.Unlock()
		if err := publish(); err != nil {
			return err
		}
		s.record(key, info.Bytes+trailerLen)
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	localPutBytesTotal.Add(info.Bytes)
	s.evictOver(key)
	return info, nil
}

// record updates the eviction index after a publish (shard lock held)
// with the file's bytes, payload plus trailer.
func (s *Store) record(key Digest, bytes int64) {
	if s.budget <= 0 {
		return
	}
	s.emu.Lock()
	if el, ok := s.index[key]; ok {
		// Content-addressed overwrite: same key, same payload (the file
		// it replaced may have been torn, so take the new size).
		s.order.MoveToFront(el)
		e := el.Value.(*storeEntry)
		s.total += bytes - e.bytes
		e.bytes = bytes
	} else {
		s.index[key] = s.order.PushFront(&storeEntry{key: key, bytes: bytes})
		s.total += bytes
	}
	localBytes.Set(float64(s.total))
	s.emu.Unlock()
}

// unindex drops key from the eviction index (shard lock held) and
// returns the bytes it accounted, or ok=false if it was not indexed.
func (s *Store) unindex(key Digest) (int64, bool) {
	s.emu.Lock()
	defer s.emu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return 0, false
	}
	n := el.Value.(*storeEntry).bytes
	s.order.Remove(el)
	delete(s.index, key)
	s.total -= n
	localBytes.Set(float64(s.total))
	return n, true
}

// evictOver removes least-recently-used artifacts until total <=
// budget, skipping keep (the key a Put just wrote). Victims are
// unlinked under their shard lock, so a concurrent Put of the same key
// cannot interleave with the remove; readers holding open descriptors
// are unaffected by the unlink.
func (s *Store) evictOver(keep Digest) {
	if s.budget <= 0 {
		return
	}
	for {
		s.emu.Lock()
		if s.total <= s.budget {
			s.emu.Unlock()
			return
		}
		// Oldest entry that is not the protected key.
		el := s.order.Back()
		for el != nil && el.Value.(*storeEntry).key == keep {
			el = el.Prev()
		}
		if el == nil {
			s.emu.Unlock()
			return
		}
		victim := el.Value.(*storeEntry)
		s.emu.Unlock()

		mu := s.shardFor(victim.key)
		mu.Lock()
		// Re-check under the shard lock: another evictor or a torn-drop
		// may have beaten us.
		freed, ok := s.unindex(victim.key)
		if !ok {
			mu.Unlock()
			continue
		}
		path := filepath.Join(s.root, string(victim.key[:2]), string(victim.key))
		if os.Remove(path) == nil {
			localEvictionsTotal.Inc()
			localEvictedBytesTotal.Add(freed)
		}
		mu.Unlock()
	}
}

// WriteFileAtomic writes a file through the store's temp-then-rename
// path without content addressing or a trailer, fsyncing it before the
// rename: the CLI-facing exports (saved models, dataset CSVs, fleet
// reports) use it so a crash mid-write cannot leave a corrupt partial
// file at the destination. The
// temp file lives next to the destination so the rename stays on one
// filesystem.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return writeAtomicStaged(filepath.Dir(path), path, true, write, func(publish func() error) error {
		return publish()
	})
}

// writeAtomicStaged streams write into a temp file under tmpDir, fsyncs
// it when durable, and renames it to final through wrap, so a caller
// can take a lock around just the rename (and its own bookkeeping)
// while the encode streams unlocked. On any error the temp file is
// removed.
func writeAtomicStaged(tmpDir, final string, durable bool, write func(io.Writer) error, wrap func(publish func() error) error) error {
	tmp, err := os.CreateTemp(tmpDir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("artifact: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("artifact: encoding %s: %w", filepath.Base(final), err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			return fmt.Errorf("artifact: syncing temp file: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: closing temp file: %w", err)
	}
	if err := wrap(func() error {
		return os.Rename(tmpName, final)
	}); err != nil {
		os.Remove(tmpName)
		tmpName = ""
		return fmt.Errorf("artifact: publishing %s: %w", filepath.Base(final), err)
	}
	tmpName = "" // published; nothing to clean up
	return nil
}

// countWriter counts bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
