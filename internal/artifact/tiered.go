package artifact

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
)

// Tiered composes backends into a read-through stack, listed hot to
// cold (mem, local, remote). Reads walk the tiers in order and promote
// a lower-tier hit into every tier above it, so the first request for
// a digest pays the cold tier once and every later one stops at the
// hot tier. Puts write through every tier, so a worker's computed
// artifact is immediately visible to the fleet behind a shared remote.
type Tiered struct {
	tiers []Backend
	name  string
}

// NewTiered stacks the given backends (hot first).
func NewTiered(tiers ...Backend) *Tiered {
	names := make([]string, len(tiers))
	for i, t := range tiers {
		names[i] = t.Name()
	}
	return &Tiered{tiers: tiers, name: "tiered(" + strings.Join(names, ",") + ")"}
}

// Name implements Backend.
func (t *Tiered) Name() string { return t.name }

// Tiers exposes the stack (hot first); callers must not mutate it.
func (t *Tiered) Tiers() []Backend { return t.tiers }

// Close implements Backend, closing every tier. The first error wins
// but every tier still gets its Close.
func (t *Tiered) Close() error {
	var first error
	for _, tier := range t.tiers {
		if err := tier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Has implements Backend: true at the first tier that has the key.
func (t *Tiered) Has(ctx context.Context, key Digest) bool {
	for _, tier := range t.tiers {
		if tier.Has(ctx, key) {
			return true
		}
	}
	return false
}

// Stat implements Backend: the first tier that holds the key answers.
// Tier errors other than validation fall through to colder tiers — a
// flaky remote must not mask a warm local hit (and vice versa the walk
// surfaces the last error when every tier fails).
func (t *Tiered) Stat(ctx context.Context, key Digest) (Info, bool, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, false, err
	}
	var lastErr error
	for _, tier := range t.tiers {
		info, ok, err := tier.Stat(ctx, key)
		if err != nil {
			lastErr = err
			continue
		}
		if ok {
			return info, true, nil
		}
	}
	return Info{}, false, lastErr
}

// Open implements Backend with read-through promotion: a hit below the
// top tier is read fully, installed into every hotter tier, and served
// from memory. The promotion bytes are verified implicitly on the
// remote tier (Fetch checks the content digest before returning).
func (t *Tiered) Open(ctx context.Context, key Digest) (io.ReadCloser, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	var lastErr error
	for i, tier := range t.tiers {
		data, info, ok, err := tierBytes(ctx, tier, key)
		if err != nil {
			if !IsNotFound(err) {
				lastErr = err
			}
			continue
		}
		if !ok {
			continue
		}
		t.promote(key, data, info, i)
		return readCloser{bytes.NewReader(data)}, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, &notFoundError{key: key, tier: "any"}
}

// tierBytes reads one tier's bytes for key, using the cheap paths the
// concrete tiers expose (no copy from mem, verified fetch from remote).
func tierBytes(ctx context.Context, tier Backend, key Digest) ([]byte, Info, bool, error) {
	switch b := tier.(type) {
	case *Mem:
		data, info, ok := b.GetBytes(key)
		return data, info, ok, nil
	case *Remote:
		data, info, err := b.Fetch(ctx, key)
		if err != nil {
			if IsNotFound(err) {
				return nil, Info{}, false, nil
			}
			return nil, Info{}, false, err
		}
		return data, info, true, nil
	default:
		rc, err := tier.Open(ctx, key)
		if err != nil {
			if IsNotFound(err) {
				return nil, Info{}, false, nil
			}
			return nil, Info{}, false, err
		}
		defer rc.Close()
		// Read to EOF, where the local store checks the trailer: a
		// torn artifact fails here, a miss, and is never promoted.
		data, err := readAll(rc)
		if err != nil {
			return nil, Info{}, false, err
		}
		return data, Info{Key: key, Content: HashBytes(data), Bytes: int64(len(data))}, true, nil
	}
}

// promote installs bytes into every tier hotter than hit (best-effort:
// a full hot tier or failed disk write only costs future reads their
// promotion, never the current one).
func (t *Tiered) promote(key Digest, data []byte, info Info, hit int) {
	for j := hit - 1; j >= 0; j-- {
		switch b := t.tiers[j].(type) {
		case *Mem:
			b.PutBytes(key, data, info)
		default:
			_, _ = b.Put(context.Background(), key, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			})
		}
		promotionsTotal.Inc()
	}
}

// Put implements Backend, writing through every tier. The encoder runs
// once into memory; each tier stores the same bytes, so the stack
// stays digest-consistent. Any tier's failure fails the Put — a
// half-written stack would serve different answers at different tiers.
func (t *Tiered) Put(ctx context.Context, key Digest, encode func(io.Writer) error) (Info, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, err
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return Info{}, err
	}
	data := buf.Bytes()
	info := Info{Key: key, Content: HashBytes(data), Bytes: int64(len(data))}
	for _, tier := range t.tiers {
		switch b := tier.(type) {
		case *Mem:
			b.PutBytes(key, data, info)
		case *Remote:
			if _, err := b.PutBytes(ctx, key, data); err != nil {
				return Info{}, fmt.Errorf("artifact: tiered put %s: %w", key.Short(), err)
			}
		default:
			if _, err := tier.Put(ctx, key, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}); err != nil {
				return Info{}, fmt.Errorf("artifact: tiered put %s: %w", key.Short(), err)
			}
		}
	}
	return info, nil
}

// Value implements ValueCacher by delegating to the first tier that
// caches decoded values (the mem tier); absent one, misses.
func (t *Tiered) Value(digest Digest) (any, bool) {
	for _, tier := range t.tiers {
		if vc, ok := tier.(ValueCacher); ok {
			return vc.Value(digest)
		}
	}
	return nil, false
}

// PutValue implements ValueCacher (see Value).
func (t *Tiered) PutValue(digest Digest, v any) {
	for _, tier := range t.tiers {
		if vc, ok := tier.(ValueCacher); ok {
			vc.PutValue(digest, v)
			return
		}
	}
}
