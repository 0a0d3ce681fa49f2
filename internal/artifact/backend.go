package artifact

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Backend is the storage interface behind the pipeline engine's warm
// cache. The concrete implementations stack into tiers:
//
//   - Mem: a size-bounded in-memory LRU over raw artifact bytes plus a
//     digest-keyed decoded-value cache, so warm hits never touch the
//     filesystem or re-parse JSON.
//   - Store: the sharded local disk backend (two-hex-prefix shards,
//     per-shard locks, optional size-budgeted LRU eviction).
//   - Remote: a content-addressed HTTP client against another
//     process's /v1/artifacts/{digest} endpoint, with SHA-256
//     verification on every read and singleflight-deduped fetches.
//   - Tiered: read-through composition (mem -> local -> remote) with
//     write-through Puts and promotion of lower-tier hits.
//
// Every method validates its key (see ValidateKey): a malformed key is
// an error, never a silent shard or a path traversal. Implementations
// are safe for concurrent use. Contexts govern cancellation on the
// backends that do I/O; local backends may ignore them.
type Backend interface {
	// Name describes the backend for logs ("local:/path", "mem",
	// "remote=http://...", "tiered(mem,local)").
	Name() string
	// Has reports whether an artifact for key is present (false on a
	// malformed key).
	Has(ctx context.Context, key Digest) bool
	// Stat returns the stored artifact's info, or ok=false when absent.
	Stat(ctx context.Context, key Digest) (Info, bool, error)
	// Open returns a reader over the stored bytes.
	Open(ctx context.Context, key Digest) (io.ReadCloser, error)
	// Put writes an artifact under key atomically via the encoder.
	Put(ctx context.Context, key Digest, encode func(io.Writer) error) (Info, error)
	// Close releases backend resources (background sweepers, idle
	// connections). The backend must not be used afterwards.
	Close() error
}

// ValueCacher is the optional decoded-value cache a Backend can offer:
// the pipeline engine memoizes decoded artifacts by content digest
// through it, so repeated warm requests for the same artifact decode
// once per process instead of once per request. Cached values are
// shared across engines and must be treated as immutable.
type ValueCacher interface {
	Value(digest Digest) (any, bool)
	PutValue(digest Digest, v any)
}

// ErrBadKey reports a malformed artifact key at the Backend boundary.
var ErrBadKey = errors.New("artifact: malformed key (want 64 lowercase hex digits)")

// KeyLen is the length of a valid artifact key: a lowercase hex
// SHA-256.
const KeyLen = 64

// ValidateKey checks that key is a full lowercase-hex SHA-256 digest.
// Every Backend method calls it, so a malformed key (truncated, mixed
// case, path traversal) errors instead of silently sharding — and the
// remote endpoint can reject it with 400 before touching the store.
func ValidateKey(key Digest) error {
	if len(key) != KeyLen {
		return fmt.Errorf("%w: %q has length %d", ErrBadKey, key, len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: %q", ErrBadKey, key)
		}
	}
	return nil
}

// SpecOptions parameterizes OpenSpec.
type SpecOptions struct {
	// LocalRoot is the directory a "local" tier without an explicit
	// =DIR argument is rooted at (the -cache-dir value).
	LocalRoot string
	// Token is the bearer token "remote" tiers authenticate with
	// (the AUDITHERM_STORE_TOKEN environment variable).
	Token string
}

// OpenSpec builds a Backend from a tier spec string:
//
//	spec  := tier ("," tier)*
//	tier  := name [":" SIZE] ["=" ARG]
//	name  := "mem" | "local" | "remote"
//
// Tiers are listed hot to cold and compose into a read-through stack
// (a single tier is returned bare). SIZE accepts plain bytes or
// KB/MB/GB/KiB/MiB/GiB suffixes:
//
//	mem[:SIZE]        in-memory byte LRU, default 256MiB
//	local[:SIZE][=DIR]  sharded disk store at DIR (default LocalRoot);
//	                  SIZE sets the eviction byte budget (0 = unbounded)
//	remote=URL        content-addressed HTTP backend at URL
//
// Examples: "mem,local", "mem:64MiB,local:2GiB",
// "mem,local,remote=http://cache-host:8080".
func OpenSpec(spec string, opts SpecOptions) (Backend, error) {
	parts := strings.Split(spec, ",")
	var tiers []Backend
	seen := map[string]bool{}
	fail := func(err error) (Backend, error) {
		for _, t := range tiers {
			t.Close()
		}
		return nil, err
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return fail(fmt.Errorf("artifact: empty tier in store spec %q", spec))
		}
		head, arg, hasArg := strings.Cut(part, "=")
		name, sizeStr, hasSize := strings.Cut(head, ":")
		var size int64
		if hasSize {
			var err error
			if size, err = ParseSize(sizeStr); err != nil {
				return fail(fmt.Errorf("artifact: tier %q: %w", part, err))
			}
		}
		if seen[name] {
			return fail(fmt.Errorf("artifact: duplicate tier %q in store spec %q", name, spec))
		}
		seen[name] = true
		switch name {
		case "mem":
			if hasArg {
				return fail(fmt.Errorf("artifact: tier mem takes no =%s argument", arg))
			}
			tiers = append(tiers, NewMem(size))
		case "local":
			root := opts.LocalRoot
			if hasArg {
				root = arg
			}
			if root == "" {
				return fail(fmt.Errorf("artifact: tier local needs a directory (pass local=DIR or set -cache-dir/$AUDITHERM_CACHE)"))
			}
			st, err := OpenLocal(root, LocalOptions{Budget: size})
			if err != nil {
				return fail(err)
			}
			tiers = append(tiers, st)
		case "remote":
			if !hasArg || arg == "" {
				return fail(fmt.Errorf("artifact: tier remote needs a URL (remote=http://host:port)"))
			}
			r, err := NewRemote(arg, opts.Token)
			if err != nil {
				return fail(err)
			}
			tiers = append(tiers, r)
		default:
			return fail(fmt.Errorf("artifact: unknown tier %q in store spec %q (mem, local or remote)", name, spec))
		}
	}
	if len(tiers) == 1 {
		return tiers[0], nil
	}
	return NewTiered(tiers...), nil
}

// sizeSuffixes maps size suffixes to multipliers, longest first so
// "mib" matches before "b".
var sizeSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
	{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
	{"b", 1},
}

// ParseSize parses a human byte size: plain digits, or a KB/MB/GB/TB
// (decimal) or KiB/MiB/GiB/TiB (binary) suffix, case-insensitive.
func ParseSize(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToLower(s))
	mult := int64(1)
	for _, sx := range sizeSuffixes {
		if strings.HasSuffix(s, sx.suffix) {
			s, mult = strings.TrimSuffix(s, sx.suffix), sx.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", orig)
	}
	return n * mult, nil
}

// readCloser adapts an in-memory reader to io.ReadCloser, keeping its
// Size so a decoder can size its buffer once.
type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }
