// Package pipeline is the typed, deterministic DAG engine behind every
// CLI and the experiments harness. Nodes are the paper's workflow
// stages — Simulate, Dataset, SysID, Cluster, Select, Control — wired
// by explicit dependencies and executed over the internal/par pool.
//
// Each node carries a versioned codec (internal/artifact) and a config
// hash; its cache key is
//
//	sha256(stage name, codec@version, config hash, input digests)
//
// so a stage re-runs exactly when its own config, its codec layout or
// any upstream artifact changed — and is rehydrated bit-identically
// from the content-addressed store otherwise. Artifacts are written
// atomically per stage, so a run killed mid-pipeline resumes from the
// last completed stage on the next invocation.
//
// The engine records per-stage cache keys, artifact digests and
// hit/miss outcomes into the run manifest, emits auditherm_pipeline_*
// metrics and opens one span per executed stage.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/obs"
	"auditherm/internal/par"
)

// Options configures an Engine.
type Options struct {
	// Backend, when set, is the artifact store the engine caches
	// through — typically a tiered stack (mem -> local -> remote)
	// shared across engines, so the in-memory hot tier and the
	// decoded-value cache survive from one request's engine to the
	// next. Takes precedence over CacheDir.
	Backend artifact.Backend
	// CacheDir roots a plain local content-addressed store (the
	// single-process CLI path). Empty with no Backend disables
	// caching: every stage recomputes (still traced and recorded in
	// the manifest, without keys).
	CacheDir string
	// Force recomputes every stage even when its key is present,
	// refreshing the cached artifact in place.
	Force bool
	// Manifest, when set, receives per-stage wall time and artifact
	// records. The engine serializes its own access; the caller must
	// not touch the builder concurrently with node resolution.
	Manifest *obs.ManifestBuilder
	// Workers bounds the parallel fan-out when resolving independent
	// dependencies (<= 0 selects the par default).
	Workers int
}

// Engine executes a DAG of stage nodes with memoization and warm-cache
// resume. Create one per run; define nodes with Define or the stage
// constructors in stages.go, then call Get on the outputs you need.
type Engine struct {
	store   artifact.Backend
	values  artifact.ValueCacher // non-nil when the backend memoizes decoded values
	force   bool
	workers int
	// ownStore marks a store the engine opened itself (CacheDir) and
	// must close; injected Backends belong to the caller.
	ownStore bool

	mmu      sync.Mutex // guards manifest
	manifest *obs.ManifestBuilder

	nmu   sync.Mutex // guards nodes
	nodes []*node
}

// New builds an engine. With a non-empty cache dir the store directory
// is created on the spot so a misconfigured path fails fast.
func New(opts Options) (*Engine, error) {
	e := &Engine{
		force:    opts.Force,
		workers:  opts.Workers,
		manifest: opts.Manifest,
	}
	switch {
	case opts.Backend != nil:
		e.store = opts.Backend
	case opts.CacheDir != "":
		st, err := artifact.Open(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		e.store = st
		e.ownStore = true
	}
	if vc, ok := e.store.(artifact.ValueCacher); ok {
		e.values = vc
	}
	return e, nil
}

// Cached reports whether the engine has a backing artifact store.
func (e *Engine) Cached() bool { return e.store != nil }

// Store exposes the backing artifact store (nil when caching is off).
func (e *Engine) Store() artifact.Backend { return e.store }

// Close releases a store the engine opened itself (the CacheDir path);
// injected backends are left to their owner. Safe on a nil store.
func (e *Engine) Close() error {
	if e.ownStore && e.store != nil {
		return e.store.Close()
	}
	return nil
}

// Result describes one resolved stage.
type Result struct {
	// Stage is the node name.
	Stage string
	// Key is the stage's cache key ("" when the stage is uncacheable).
	Key artifact.Digest
	// Digest and Bytes describe the stage's artifact content.
	Digest artifact.Digest
	Bytes  int64
	// CacheHit reports whether the stage was served from the store.
	CacheHit bool
	// Wall is the stage's resolution time (decode for hits, compute +
	// encode for misses).
	Wall time.Duration
}

// node is the untyped stage core shared by every Node[T].
type node struct {
	eng          *Engine
	name         string
	codecName    string
	codecVersion int
	configHash   string
	noCache      bool
	deps         []*node

	compute func(ctx context.Context) (any, error)
	encode  func(w io.Writer, v any) error
	decode  func(r io.Reader) (any, error)

	mu      sync.Mutex
	started bool
	done    chan struct{}
	err     error
	res     Result

	// Lazy value: on a cache hit the artifact is decoded only when a
	// consumer demands the value, so a fully-warm run never pays for
	// rehydrating intermediates nobody reads.
	vmu     sync.Mutex
	decoded bool
	val     any
}

// AnyNode is any typed node (the dependency-list currency).
type AnyNode interface{ inner() *node }

// Node is a typed handle on one stage of the DAG.
type Node[T any] struct{ n *node }

func (nd *Node[T]) inner() *node { return nd.n }

// Name returns the stage name.
func (nd *Node[T]) Name() string { return nd.n.name }

// Opt tweaks one node definition.
type Opt func(*node)

// NoCache marks a stage as uncacheable: it always recomputes and its
// downstream consumers become uncacheable too (their keys would not
// capture this stage's effect). Use it for side-effectful stages such
// as monitored control loops.
func NoCache() Opt { return func(n *node) { n.noCache = true } }

// Define adds a stage to the DAG. name must be unique per engine;
// config must capture every input that affects compute's output other
// than the listed dependency artifacts (flag values, file digests,
// seeds). compute reads dependency values via their Get methods —
// deps is the authoritative edge list used for key derivation and
// parallel resolution, so every node compute consumes must be listed.
func Define[T any](e *Engine, name string, codec artifact.Codec[T], config map[string]string, deps []AnyNode, compute func(ctx context.Context) (T, error), opts ...Opt) *Node[T] {
	n := &node{
		eng:          e,
		name:         name,
		codecName:    codec.Name,
		codecVersion: codec.Version,
		configHash:   artifact.HashConfig(config),
		done:         make(chan struct{}),
		compute: func(ctx context.Context) (any, error) {
			return compute(ctx)
		},
		encode: func(w io.Writer, v any) error {
			tv, ok := v.(T)
			if !ok {
				return fmt.Errorf("pipeline: stage %s produced %T", name, v)
			}
			return codec.Encode(w, tv)
		},
		decode: func(r io.Reader) (any, error) {
			return codec.Decode(r)
		},
	}
	for _, d := range deps {
		n.deps = append(n.deps, d.inner())
	}
	for _, o := range opts {
		o(n)
	}
	e.nmu.Lock()
	e.nodes = append(e.nodes, n)
	e.nmu.Unlock()
	return &Node[T]{n: n}
}

// Get resolves the stage (running it or rehydrating it from the cache)
// and returns its value. Safe to call from multiple goroutines and
// from other stages' compute functions; the stage executes once.
func (nd *Node[T]) Get(ctx context.Context) (T, error) {
	var zero T
	if err := nd.n.resolve(ctx); err != nil {
		return zero, err
	}
	v, err := nd.n.value(ctx)
	if err != nil {
		return zero, err
	}
	tv, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("pipeline: stage %s rehydrated %T", nd.n.name, v)
	}
	return tv, nil
}

// Result returns the stage's resolution record; ok is false until the
// stage has been resolved.
func (nd *Node[T]) Result() (Result, bool) {
	nd.n.mu.Lock()
	defer nd.n.mu.Unlock()
	if !nd.n.started {
		return Result{}, false
	}
	select {
	case <-nd.n.done:
		return nd.n.res, nd.n.err == nil
	default:
		return Result{}, false
	}
}

// Results returns the resolution records of every resolved node in
// definition order — the per-run cache scoreboard the CLIs print.
func (e *Engine) Results() []Result {
	e.nmu.Lock()
	nodes := append([]*node(nil), e.nodes...)
	e.nmu.Unlock()
	var out []Result
	for _, n := range nodes {
		n.mu.Lock()
		started := n.started
		n.mu.Unlock()
		if !started {
			continue
		}
		select {
		case <-n.done:
			if n.err == nil {
				out = append(out, n.res)
			}
		default:
		}
	}
	return out
}

// resolve executes the stage once (memoized); concurrent callers wait.
func (n *node) resolve(ctx context.Context) error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		select {
		case <-n.done:
			return n.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	n.started = true
	n.mu.Unlock()

	defer close(n.done)
	n.err = n.run(ctx)
	return n.err
}

// run resolves dependencies (in parallel), derives the cache key and
// either rehydrates or computes the stage.
func (n *node) run(ctx context.Context) (err error) {
	t0 := time.Now()
	sctx, sp := obs.StartSpan(ctx, "pipeline/"+n.name)
	defer func() {
		if err != nil {
			sp.SetError(err)
		}
		sp.End()
	}()

	// Fan the dependency subtrees out over the par pool. Each resolve
	// is memoized, so a diamond executes its shared ancestor once.
	if len(n.deps) > 0 {
		if err := par.ForEach(sctx, n.eng.workers, len(n.deps), func(i int) error {
			return n.deps[i].resolve(sctx)
		}); err != nil {
			return fmt.Errorf("pipeline: stage %s deps: %w", n.name, err)
		}
	}

	n.res = Result{Stage: n.name}
	cacheable := n.eng.store != nil && !n.noCache
	var inputs []artifact.Digest
	for _, d := range n.deps {
		if d.res.Digest == "" {
			cacheable = false
			break
		}
		inputs = append(inputs, d.res.Digest)
	}

	stagesTotal.Inc()
	if !cacheable {
		uncacheableTotal.Inc()
		sp.SetCount("cache_hit", 0)
		sp.SetAttr(obs.Bool("cache_hit", false))
		if err := n.computeValue(sctx); err != nil {
			return err
		}
		n.finish(t0, sp)
		return nil
	}

	key := artifact.Key(n.name, n.codecName, n.codecVersion, n.configHash, inputs)
	n.res.Key = key
	sp.SetAttr(obs.String("cache_key", key.Short()))
	if !n.eng.force {
		if info, ok, err := n.eng.store.Stat(sctx, key); err != nil {
			return fmt.Errorf("pipeline: stage %s cache stat: %w", n.name, err)
		} else if ok {
			cacheHitsTotal.Inc()
			readBytesTotal.Add(info.Bytes)
			sp.SetCount("cache_hit", 1)
			sp.SetCount("artifact_bytes", info.Bytes)
			sp.SetAttr(obs.Bool("cache_hit", true))
			sp.SetAttr(obs.String("artifact_digest", info.Content.Short()))
			sp.SetAttr(obs.Int("artifact_bytes", info.Bytes))
			n.res.Digest = info.Content
			n.res.Bytes = info.Bytes
			n.res.CacheHit = true
			n.finish(t0, sp)
			return nil
		}
	} else if n.eng.store.Has(sctx, key) {
		forceBypassTotal.Inc()
	}

	cacheMissesTotal.Inc()
	sp.SetCount("cache_hit", 0)
	sp.SetAttr(obs.Bool("cache_hit", false))
	if err := n.computeValue(sctx); err != nil {
		return err
	}
	info, err := n.eng.store.Put(sctx, key, func(w io.Writer) error {
		return n.encode(w, n.val)
	})
	if err != nil {
		return fmt.Errorf("pipeline: stage %s: %w", n.name, err)
	}
	writeBytesTotal.Add(info.Bytes)
	// Seed the decoded-value cache with the freshly computed value, so
	// another engine's warm hit on this artifact skips the decode too.
	if n.eng.values != nil {
		n.eng.values.PutValue(info.Content, n.val)
	}
	sp.SetCount("artifact_bytes", info.Bytes)
	sp.SetAttr(obs.String("artifact_digest", info.Content.Short()))
	sp.SetAttr(obs.Int("artifact_bytes", info.Bytes))
	n.res.Digest = info.Content
	n.res.Bytes = info.Bytes
	n.finish(t0, sp)
	return nil
}

// computeValue runs the stage body and stores its value.
func (n *node) computeValue(ctx context.Context) error {
	v, err := n.compute(ctx)
	if err != nil {
		return fmt.Errorf("pipeline: stage %s: %w", n.name, err)
	}
	n.vmu.Lock()
	n.val = v
	n.decoded = true
	n.vmu.Unlock()
	return nil
}

// value returns the stage's value, decoding the cached artifact on
// first demand after a hit. Decodes are memoized by content digest
// when the backend offers a value cache, so repeated warm requests
// across engines decode once per process instead of once per request;
// memoized values are shared and must be treated as immutable. An
// artifact evicted between the hit and this decode, or torn under it,
// simply recomputes from the stage function — eviction and damage can
// cost work, never correctness.
func (n *node) value(ctx context.Context) (any, error) {
	n.vmu.Lock()
	defer n.vmu.Unlock()
	if n.decoded {
		return n.val, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.eng.values != nil && n.res.Digest != "" {
		if v, ok := n.eng.values.Value(n.res.Digest); ok {
			n.val = v
			n.decoded = true
			return n.val, nil
		}
	}
	t0 := time.Now()
	rc, err := n.eng.store.Open(ctx, n.res.Key)
	if err != nil {
		if artifact.IsNotFound(err) {
			return n.recomputeEvicted(ctx)
		}
		return nil, fmt.Errorf("pipeline: stage %s: %w", n.name, err)
	}
	defer rc.Close()
	v, err := n.decode(rc)
	if err != nil {
		if artifact.IsNotFound(err) { // torn: the store dropped it mid-read
			return n.recomputeEvicted(ctx)
		}
		return nil, fmt.Errorf("pipeline: stage %s rehydrating: %w", n.name, err)
	}
	decodesTotal.Inc()
	decodeSeconds.Observe(time.Since(t0).Seconds())
	if n.eng.values != nil && n.res.Digest != "" {
		n.eng.values.PutValue(n.res.Digest, v)
	}
	n.val = v
	n.decoded = true
	return n.val, nil
}

// recomputeEvicted regenerates a stage value whose artifact was
// evicted, or found torn and dropped, between the cache hit and the
// lazy decode (vmu held). The recompute is not re-Put: the evictor
// reclaimed the space on purpose, and a dropped artifact is a miss for
// the next run to refill.
func (n *node) recomputeEvicted(ctx context.Context) (any, error) {
	evictedRecomputesTotal.Inc()
	v, err := n.compute(ctx)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %s recomputing evicted artifact: %w", n.name, err)
	}
	n.val = v
	n.decoded = true
	return n.val, nil
}

// finish stamps timing and publishes the stage record to the manifest
// and metrics; the stage-latency histogram records the stage's span as
// its bucket exemplar, so a latency spike on /metrics names the stage.
func (n *node) finish(t0 time.Time, sp *obs.Span) {
	n.res.Wall = time.Since(t0)
	stageSeconds.ObserveSpan(n.res.Wall.Seconds(), sp)
	if b := n.eng.manifest; b != nil {
		n.eng.mmu.Lock()
		b.AddStageWall(n.name, n.res.Wall)
		b.StageArtifact(n.name, obs.ArtifactStat{
			Key:      string(n.res.Key),
			Digest:   string(n.res.Digest),
			Bytes:    n.res.Bytes,
			CacheHit: n.res.CacheHit,
			WallMS:   float64(n.res.Wall) / float64(time.Millisecond),
		})
		n.eng.mmu.Unlock()
	}
}
