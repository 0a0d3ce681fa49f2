// Package serve is the request-serving daemon behind cmd/serve: the
// paper's workflow stages (sysid, cluster, select, control, the
// experiment reports) exposed as HTTP endpoints over one long-lived
// process.
//
// Every request is a pipeline-stage composition executed by a
// per-request engine over the daemon's shared content-addressed
// artifact store, so the store is the warm layer: the first request
// for a configuration computes and persists its stages, and every
// later request — in this process or the next — rehydrates them. On
// top of the store sits an in-memory LRU of rendered response bodies,
// so a repeated request replays the cold run's bytes without touching
// the engine at all.
//
// Each request gets its own run ID (returned as X-Auditherm-Run), a
// request span parented under the daemon's root span (streaming to the
// -trace file and the /debug/trace ring with the run ID attached), and
// — when a run directory is configured — its own run manifest.
// Response bodies exclude the run ID and all timing, so a warm
// response is byte-identical to its cold counterpart
// (X-Auditherm-Cache says which one this was).
//
// Lifecycle: the daemon shares the obs.MetricsServer listener, so
// /metrics, /healthz, /readyz, /debug/* and the /v1/* API ride one
// port. On SIGTERM the main flips /readyz to 503 (load balancers stop
// routing), the server rejects new API requests with 503, in-flight
// requests run to completion, and only then do the trace file,
// manifest and journal flush and the listener close — a kill under
// load loses zero in-flight responses.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/building"
	"auditherm/internal/dataset"
	"auditherm/internal/experiments"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
)

// Config parameterizes the daemon.
type Config struct {
	// Dataset is the simulated-auditorium configuration every request
	// works against (the daemon's "building").
	Dataset dataset.Config
	// CacheDir roots the shared artifact store. Empty disables the
	// persistent warm layer (every request still gets the response
	// LRU) unless Store names tiers that need no directory.
	CacheDir string
	// Store is the artifact tier spec ("mem,local,remote=URL"; see
	// artifact.OpenSpec). Empty with a CacheDir selects "mem,local" —
	// the daemon always fronts its disk store with the hot tier.
	Store string
	// StoreToken authenticates remote tiers and inbound
	// /v1/artifacts requests. Empty disables auth.
	StoreToken string
	// Force recomputes stages even when cached (debugging).
	Force bool
	// Workers bounds each request engine's dependency fan-out.
	Workers int
	// MaxInFlight bounds concurrently computing requests; further
	// requests wait their turn (response-cache hits bypass the gate).
	// <= 0 selects 4.
	MaxInFlight int
	// ResponseCache is the LRU capacity in entries (<= 0 selects 128).
	ResponseCache int
	// RunDir, when non-empty, receives one run manifest per request as
	// <runID>.json.
	RunDir string
}

// Server executes API requests as pipeline compositions. Create with
// New, mount with Mount, stop with BeginDrain + Wait.
type Server struct {
	cfg  Config
	log  *slog.Logger
	root *obs.Span

	sem      chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64
	draining atomic.Bool
	started  time.Time

	cache  *responseCache
	flight *flightGroup

	// backend is the shared artifact tier stack every request engine
	// runs over (nil when caching is off); artifacts is the
	// /v1/artifacts handler exposing it to remote-tier clients.
	backend   artifact.Backend
	artifacts *artifact.Handler

	envMu sync.Mutex
	env   *experiments.Env

	// reportIDs is the experiment catalog, precomputed at startup so
	// /v1/experiments and report-id validation need no engine.
	reportIDs []string
	reportSet map[string]bool

	// sensors is the daemon dataset's sensor count, the largest k
	// /v1/cluster and /v1/select accept.
	sensors int

	// epTrace tallies trace-propagation outcomes per endpoint
	// (populated once in New; the maps themselves are never mutated
	// after, so reads need no lock).
	epTrace map[string]*endpointTrace

	// computeHook, when set, runs at the start of every cache-miss
	// computation; tests use it to hold requests in flight
	// deterministically while exercising the drain path. Set it only
	// while no requests are being served.
	computeHook func(endpoint string)
}

// New builds a Server. log must be non-nil; root may be nil (request
// spans then start their own trees).
func New(cfg Config, log *slog.Logger, root *obs.Span) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.ResponseCache <= 0 {
		cfg.ResponseCache = 128
	}
	// Fail fast on a bad building: the simulator no longer clamps
	// out-of-range mixing parameters, so a daemon misconfiguration
	// surfaces here instead of as a 500 on the first request.
	if cfg.Dataset.Spec != nil {
		if err := cfg.Dataset.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	} else if err := cfg.Dataset.Building.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	spec := cfg.Store
	if spec == "" && cfg.CacheDir != "" {
		// The daemon's default stack fronts its disk store with the
		// in-memory hot tier: warm requests never touch the filesystem.
		spec = "mem,local"
	}
	var backend artifact.Backend
	if spec != "" {
		// Building the stack here fails fast on a misconfigured store
		// (and starts the local tier's stale-temp orphan sweep) before
		// the first request pays for it.
		var err error
		backend, err = artifact.OpenSpec(spec, artifact.SpecOptions{
			LocalRoot: cfg.CacheDir,
			Token:     cfg.StoreToken,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if cfg.RunDir != "" {
		if err := os.MkdirAll(cfg.RunDir, 0o755); err != nil {
			if backend != nil {
				backend.Close()
			}
			return nil, fmt.Errorf("serve: run dir: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		log:     log,
		root:    root,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		started: time.Now(),
		cache:   newResponseCache(cfg.ResponseCache),
		flight:  newFlightGroup(),
		backend: backend,
		epTrace: make(map[string]*endpointTrace),
	}
	for _, ep := range []string{"sysid", "cluster", "select", "control", "report", "fleet", "artifacts"} {
		s.epTrace[ep] = &endpointTrace{}
	}
	if backend != nil {
		s.artifacts = artifact.NewHandler(backend, cfg.StoreToken)
	}
	// Enumerate the experiment catalog once on a throwaway engine;
	// the ids validate /v1/report requests without building anything.
	eng, err := pipeline.New(pipeline.Options{})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.reportIDs = experiments.CatalogIDs(
		experiments.Catalog(eng, experiments.NewEnvSource(eng, cfg.Dataset), 7))
	s.reportSet = make(map[string]bool, len(s.reportIDs))
	for _, id := range s.reportIDs {
		s.reportSet[id] = true
	}
	s.sensors = len(building.SensorsOf(cfg.Dataset.Spec))
	return s, nil
}

// Mount attaches the /v1/* API to the metrics server's mux and
// registers the "serve" readiness check (not ready while draining), so
// API, probes and metrics share one listener.
func (s *Server) Mount(m *obs.MetricsServer) {
	s.MountMux(m)
	m.AddReadiness("serve", func() error {
		if s.draining.Load() {
			return fmt.Errorf("draining: not accepting new requests")
		}
		return nil
	})
}

// muxer is the subset of http.ServeMux the server mounts on.
type muxer interface {
	Handle(pattern string, h http.Handler)
}

// MountMux attaches the /v1/* API routes to any mux.
func (s *Server) MountMux(m muxer) {
	m.Handle("/v1/experiments", http.HandlerFunc(s.experimentsIndex))
	m.Handle("/v1/status", http.HandlerFunc(s.status))
	m.Handle("/v1/sysid", s.handle("sysid", s.parseSysid))
	m.Handle("/v1/cluster", s.handle("cluster", s.parseCluster))
	m.Handle("/v1/select", s.handle("select", s.parseSelect))
	m.Handle("/v1/control", s.handle("control", s.parseControl))
	m.Handle("/v1/report", s.handle("report", s.parseReport))
	m.Handle("/v1/fleet", s.handle("fleet", s.parseFleet))
	if s.artifacts != nil {
		// The artifact endpoint rides the daemon's drain gate so a
		// shutdown never truncates a peer's fetch mid-body. Like the
		// compute endpoints it answers with a per-request run ID and
		// links its span to the caller's trace context, so a remote
		// tier's fetch and the daemon's serving of it stitch into one
		// tree under tracetool merge.
		m.Handle(s.artifacts.PathPrefix(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.wg.Add(1)
			defer s.wg.Done()
			if s.draining.Load() {
				drainRejectsTotal.Inc()
				httpError(w, http.StatusServiceUnavailable, "draining: not accepting new requests")
				return
			}
			s.inflight.Add(1)
			inflightGauge.Add(1)
			defer func() {
				s.inflight.Add(-1)
				inflightGauge.Add(-1)
			}()

			runID := obs.NewRunID()
			w.Header().Set(obs.RunHeader, runID)
			ctx := r.Context()
			if s.root != nil {
				ctx = obs.ContextWithSpan(ctx, s.root)
			}
			sctx, sp := obs.StartSpan(ctx, "serve/artifacts")
			sp.SetAttr(obs.String("run_id", runID))
			sp.SetAttr(obs.String("endpoint", "artifacts"))
			sp.SetAttr(obs.String("method", r.Method))
			defer sp.End()
			defer s.recordSpanDrops("artifacts", sp)
			s.extractLink("artifacts", r, sp)
			s.artifacts.ServeHTTP(w, r.WithContext(sctx))
		}))
	}
}

// Backend exposes the daemon's shared artifact tier stack (nil when
// caching is off); tests use it to inspect tier state.
func (s *Server) Backend() artifact.Backend { return s.backend }

// Close releases the daemon's shared artifact backend. Call after the
// drain completes — in-flight requests hold engines over the backend.
func (s *Server) Close() error {
	if s.backend == nil {
		return nil
	}
	err := s.backend.Close()
	s.backend = nil
	return err
}

// BeginDrain stops request intake: every subsequent API request gets
// 503 while in-flight requests keep running. Idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.log.Info("serve draining: rejecting new requests, finishing in-flight")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// Wait blocks until every in-flight request has finished, or until
// timeout (<= 0 waits forever). It reports an error when requests were
// still running at the deadline — the caller then knows responses may
// be lost to the listener close that follows.
func (s *Server) Wait(timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: %d requests still in flight after %v drain budget", s.InFlight(), timeout)
	}
}

// endpointTrace tallies one endpoint's trace-propagation outcomes for
// /v1/status: caller links established, malformed headers rejected,
// and span payload drops (attrs/events truncated at the obs bounds)
// observed on completed request spans.
type endpointTrace struct {
	links      atomic.Int64
	linkErrors atomic.Int64
	spanDrops  atomic.Int64
}

// extractLink reads the caller's trace context from the request
// headers and links sp to it. A missing header is an untraced caller
// (normal); a malformed one is counted and logged, and the request
// proceeds with an unlinked span — propagation must never fail a
// request. Returns the caller's reference (zero when unlinked) for
// the per-request manifest.
func (s *Server) extractLink(name string, r *http.Request, sp *obs.Span) obs.TraceRef {
	ref, present, err := obs.ExtractTrace(r.Header)
	if !present {
		return obs.TraceRef{}
	}
	st := s.epTrace[name]
	if err != nil {
		traceLinkErrorsTotal.Inc()
		if st != nil {
			st.linkErrors.Add(1)
		}
		s.log.Warn("malformed trace header; serving unlinked",
			slog.String("endpoint", name), slog.String("error", err.Error()))
		return obs.TraceRef{}
	}
	sp.SetLink(ref)
	traceLinksTotal.Inc()
	if st != nil {
		st.links.Add(1)
	}
	return ref
}

// recordSpanDrops folds a finished request span's overflow tallies
// into the endpoint's status counters.
func (s *Server) recordSpanDrops(name string, sp *obs.Span) {
	if st := s.epTrace[name]; st != nil {
		a, e := sp.Dropped()
		if n := a + e; n > 0 {
			st.spanDrops.Add(n)
		}
	}
}

// computeFn resolves one request's pipeline composition to the value
// that becomes the (deterministic) response body.
type computeFn func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error)

// parseFn validates one endpoint's query parameters, returning the
// canonical parameter map (defaults applied — the response-cache key)
// and the computation to run on a miss.
type parseFn func(q url.Values) (params map[string]string, compute computeFn, err error)

// handle wraps one endpoint in the shared request path: drain gate,
// run ID, request span, response cache, admission semaphore,
// identical-request coalescing, per-request engine and manifest.
func (s *Server) handle(name string, parse parseFn) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.wg.Add(1)
		defer s.wg.Done()
		if s.draining.Load() {
			drainRejectsTotal.Inc()
			httpError(w, http.StatusServiceUnavailable, "draining: not accepting new requests")
			return
		}
		s.inflight.Add(1)
		inflightGauge.Add(1)
		defer func() {
			s.inflight.Add(-1)
			inflightGauge.Add(-1)
		}()
		requestsTotal.Inc()

		runID := obs.NewRunID()
		w.Header().Set(obs.RunHeader, runID)

		params, compute, err := parse(r.URL.Query())
		if err != nil {
			errorsTotal.Inc()
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		key := name + "\x00" + artifact.HashConfig(params)

		ctx := r.Context()
		if s.root != nil {
			ctx = obs.ContextWithSpan(ctx, s.root)
		}
		sctx, sp := obs.StartSpan(ctx, "serve/"+name)
		sp.SetAttr(obs.String("run_id", runID))
		sp.SetAttr(obs.String("endpoint", name))
		defer sp.End()
		defer s.recordSpanDrops(name, sp)
		caller := s.extractLink(name, r, sp)
		t0 := time.Now()

		if body, ok := s.cache.get(key); ok {
			responseHitsTotal.Inc()
			sp.SetAttr(obs.Bool("response_cache_hit", true))
			s.writeManifest(runID, name, params, caller, "served from the in-memory response cache")
			s.respond(w, http.StatusOK, body, "hit")
			requestSeconds.ObserveSpan(time.Since(t0).Seconds(), sp)
			return
		}
		sp.SetAttr(obs.Bool("response_cache_hit", false))

		// Admission gate: bound the engines computing at once. Honors
		// the client hanging up while queued.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			errorsTotal.Inc()
			httpError(w, http.StatusServiceUnavailable, "request canceled while queued")
			return
		}

		body, leader, err := s.flight.do(key, func() ([]byte, error) {
			if s.computeHook != nil {
				s.computeHook(name)
			}
			b := obs.NewManifest("serve")
			b.SetRunID(runID)
			b.SetCaller(caller)
			b.SetConfig(withEndpoint(name, params))
			eng, err := pipeline.New(pipeline.Options{
				Backend:  s.backend,
				Force:    s.cfg.Force,
				Manifest: b,
				Workers:  s.cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			v, err := compute(sctx, eng, b)
			if err != nil {
				return nil, err
			}
			// Canonical body: indented JSON of the result value alone —
			// no run ID, no timing — so warm and cold bytes match.
			body, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				return nil, err
			}
			body = append(body, '\n')
			s.cache.put(key, body)
			s.flushRequestManifest(runID, b)
			return body, nil
		})
		if err != nil {
			errorsTotal.Inc()
			sp.SetError(err)
			s.log.Error("request failed", slog.String("endpoint", name),
				slog.String("run_id", runID), slog.String("error", err.Error()))
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		state := "miss"
		if leader {
			responseMissesTotal.Inc()
		} else {
			// A follower's result came from a concurrent identical
			// computation — warm from this request's point of view.
			coalescedTotal.Inc()
			state = "hit"
			s.writeManifest(runID, name, params, caller, "coalesced into a concurrent identical request")
		}
		sp.SetAttr(obs.Bool("coalesced", !leader))
		s.respond(w, http.StatusOK, body, state)
		requestSeconds.ObserveSpan(time.Since(t0).Seconds(), sp)
	})
}

// respond writes a deterministic JSON body with the cache-state header.
func (s *Server) respond(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Auditherm-Cache", cacheState)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	data, _ := json.Marshal(map[string]string{"error": msg})
	_, _ = w.Write(append(data, '\n'))
}

// withEndpoint is the manifest/config view of a request: its canonical
// parameters plus the endpoint name.
func withEndpoint(name string, params map[string]string) map[string]string {
	cfg := make(map[string]string, len(params)+1)
	for k, v := range params {
		cfg[k] = v
	}
	cfg["endpoint"] = name
	return cfg
}

// writeManifest emits a fresh per-request manifest for requests that
// never built an engine (response-cache hits, coalesced followers).
func (s *Server) writeManifest(runID, name string, params map[string]string, caller obs.TraceRef, note string) {
	if s.cfg.RunDir == "" {
		return
	}
	b := obs.NewManifest("serve")
	b.SetRunID(runID)
	b.SetCaller(caller)
	b.SetConfig(withEndpoint(name, params))
	b.AddNote(note)
	s.flushRequestManifest(runID, b)
}

// flushRequestManifest writes one request's manifest into the run
// directory; failures are logged, not fatal — the response already
// succeeded.
func (s *Server) flushRequestManifest(runID string, b *obs.ManifestBuilder) {
	if s.cfg.RunDir == "" {
		return
	}
	path := s.cfg.RunDir + "/" + runID + ".json"
	if err := b.WriteFile(path); err != nil {
		s.log.Error("writing request manifest", slog.String("path", path),
			slog.String("error", err.Error()))
	}
}

// cachedEnv returns the cross-request experiment environment, if one
// has been derived.
func (s *Server) cachedEnv() *experiments.Env {
	s.envMu.Lock()
	defer s.envMu.Unlock()
	return s.env
}

// storeEnv retains a derived experiment environment for later report
// requests (all requests share one dataset config, so any derived Env
// is valid for all of them).
func (s *Server) storeEnv(env *experiments.Env) {
	if env == nil {
		return
	}
	s.envMu.Lock()
	s.env = env
	s.envMu.Unlock()
}
