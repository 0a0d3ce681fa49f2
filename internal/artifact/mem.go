package artifact

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"io"
	"io/fs"
	"sync"
)

// DefaultMemBytes is the byte-LRU capacity a Mem tier gets when the
// spec names no size.
const DefaultMemBytes = 256 << 20

// defaultValueEntries bounds the decoded-value cache (entries, not
// bytes: decoded sizes are opaque, and the byte tier already bounds
// the raw footprint the values decode from).
const defaultValueEntries = 512

// Mem is the in-memory hot tier: a size-bounded LRU over raw artifact
// bytes plus a digest-keyed decoded-value cache, so a warm hit never
// touches the filesystem or re-parses JSON. Stored byte slices are
// immutable; GetBytes returns them without copying (0 allocs on the
// steady-state hit path), and callers must not mutate them.
type Mem struct {
	mu      sync.Mutex
	cap     int64
	total   int64
	order   *list.List // front = most recently used; values are *memEntry
	entries map[Digest]*list.Element

	vmu      sync.Mutex
	vcap     int
	vorder   *list.List // values are *valueEntry
	ventries map[Digest]*list.Element
}

type memEntry struct {
	key  Digest
	data []byte
	info Info
}

type valueEntry struct {
	digest Digest
	val    any
}

// NewMem builds the hot tier with the given byte capacity (<= 0
// selects DefaultMemBytes).
func NewMem(capBytes int64) *Mem {
	if capBytes <= 0 {
		capBytes = DefaultMemBytes
	}
	return &Mem{
		cap:      capBytes,
		order:    list.New(),
		entries:  make(map[Digest]*list.Element),
		vcap:     defaultValueEntries,
		vorder:   list.New(),
		ventries: make(map[Digest]*list.Element),
	}
}

// Name implements Backend.
func (m *Mem) Name() string { return "mem" }

// Close implements Backend (nothing to release).
func (m *Mem) Close() error { return nil }

// GetBytes returns the cached bytes and info for key, marking it most
// recently used. The steady-state hit performs zero filesystem
// syscalls and zero allocations; the returned slice is shared and must
// not be mutated.
func (m *Mem) GetBytes(key Digest) ([]byte, Info, bool) {
	if ValidateKey(key) != nil {
		return nil, Info{}, false
	}
	m.mu.Lock()
	el, ok := m.entries[key]
	if !ok {
		m.mu.Unlock()
		memMissesTotal.Inc()
		return nil, Info{}, false
	}
	m.order.MoveToFront(el)
	e := el.Value.(*memEntry)
	m.mu.Unlock()
	memHitsTotal.Inc()
	return e.data, e.info, true
}

// PutBytes stores an already-encoded artifact (tier promotion and the
// remote fetch path use it; data must not be mutated afterwards). The
// entry keeps data's whole backing array reachable, an encode buffer's
// spare capacity included, so the byte budget counts cap(data).
func (m *Mem) PutBytes(key Digest, data []byte, info Info) {
	if ValidateKey(key) != nil || int64(cap(data)) > m.cap {
		return
	}
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		// Content-addressed: same key, same bytes — refresh recency.
		m.order.MoveToFront(el)
		m.mu.Unlock()
		return
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, data: data, info: info})
	m.total += int64(cap(data))
	for m.total > m.cap {
		last := m.order.Back()
		e := last.Value.(*memEntry)
		m.order.Remove(last)
		delete(m.entries, e.key)
		m.total -= int64(cap(e.data))
		memEvictionsTotal.Inc()
	}
	memBytes.Set(float64(m.total))
	m.mu.Unlock()
}

// Has implements Backend.
func (m *Mem) Has(_ context.Context, key Digest) bool {
	_, _, ok := m.GetBytes(key)
	return ok
}

// Stat implements Backend: info comes from the cached entry, no
// re-hashing.
func (m *Mem) Stat(_ context.Context, key Digest) (Info, bool, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, false, err
	}
	_, info, ok := m.GetBytes(key)
	return info, ok, nil
}

// Open implements Backend over the cached bytes.
func (m *Mem) Open(_ context.Context, key Digest) (io.ReadCloser, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	data, _, ok := m.GetBytes(key)
	if !ok {
		return nil, &notFoundError{key: key, tier: "mem"}
	}
	return readCloser{bytes.NewReader(data)}, nil
}

// Put implements Backend: the encoder runs into a buffer whose bytes
// become the cached entry.
func (m *Mem) Put(_ context.Context, key Digest, encode func(io.Writer) error) (Info, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, err
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return Info{}, err
	}
	data := buf.Bytes()
	info := Info{Key: key, Content: HashBytes(data), Bytes: int64(len(data))}
	m.PutBytes(key, data, info)
	return info, nil
}

// Value returns the decoded artifact cached under the given content
// digest. Values are shared across engines; treat them as immutable.
func (m *Mem) Value(digest Digest) (any, bool) {
	m.vmu.Lock()
	el, ok := m.ventries[digest]
	if !ok {
		m.vmu.Unlock()
		valueMissesTotal.Inc()
		return nil, false
	}
	m.vorder.MoveToFront(el)
	v := el.Value.(*valueEntry).val
	m.vmu.Unlock()
	valueHitsTotal.Inc()
	return v, true
}

// PutValue caches a decoded artifact under its content digest.
func (m *Mem) PutValue(digest Digest, v any) {
	m.vmu.Lock()
	if el, ok := m.ventries[digest]; ok {
		m.vorder.MoveToFront(el)
		m.vmu.Unlock()
		return
	}
	m.ventries[digest] = m.vorder.PushFront(&valueEntry{digest: digest, val: v})
	for m.vorder.Len() > m.vcap {
		last := m.vorder.Back()
		m.vorder.Remove(last)
		delete(m.ventries, last.Value.(*valueEntry).digest)
	}
	m.vmu.Unlock()
}

// notFoundError marks a miss so tier walks and recompute fallbacks can
// distinguish it from real I/O failures.
type notFoundError struct {
	key  Digest
	tier string
}

func (e *notFoundError) Error() string {
	return "artifact: " + e.key.Short() + " not found in " + e.tier + " tier"
}

// IsNotFound reports whether err means "artifact absent" (any tier's
// miss, including a local file evicted between stat and open).
func IsNotFound(err error) bool {
	if err == nil {
		return false
	}
	var nf *notFoundError
	return errors.As(err, &nf) || errors.Is(err, fs.ErrNotExist)
}
