package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Server hardening knobs. ReadHeaderTimeout bounds how long a client
// may dribble request headers (without it, idle half-open connections
// — slowloris-style — pin goroutines and file descriptors forever).
// Read/Write timeouts stay unset on purpose: /debug/pprof/profile and
// /debug/pprof/trace legitimately stream for tens of seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownTimeout bounds the graceful drain in Close: in-flight
	// scrapes and short profiles get this long to finish before the
	// server falls back to a hard close.
	shutdownTimeout = 5 * time.Second
)

// MetricsServer serves the registry over HTTP: /metrics (Prometheus
// text), /debug/vars (expvar-style JSON), /debug/pprof/*, plus the
// probe endpoints /healthz (liveness) and /readyz (readiness over the
// registered checks).
type MetricsServer struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
	mux  *http.ServeMux

	started time.Time

	// draining flips /readyz to 503 ahead of the listener closing, so
	// load balancers stop routing new work while in-flight requests
	// finish. Close sets it; long-running daemons set it earlier via
	// BeginDrain to get a deregistration grace window.
	draining atomic.Bool

	readyMu sync.Mutex
	checks  []readinessCheck
}

// Handle mounts an additional handler on the server's mux (e.g. a
// serving daemon's API endpoints, so probes, metrics and the API share
// one listener). Safe to call while serving; panics on a duplicate
// pattern, like http.ServeMux.
func (m *MetricsServer) Handle(pattern string, h http.Handler) {
	m.mux.Handle(pattern, h)
}

// BeginDrain flips the server into draining state: /readyz starts
// answering 503 immediately while every other endpoint keeps serving.
// Call it before stopping request intake so load balancers deregister
// the instance ahead of the listener closing. Idempotent.
func (m *MetricsServer) BeginDrain() { m.draining.Store(true) }

// Draining reports whether BeginDrain (or Close) has been called.
func (m *MetricsServer) Draining() bool { return m.draining.Load() }

type readinessCheck struct {
	name string
	fn   func() error
}

// AddReadiness registers a named readiness check consulted by
// /readyz: the server reports ready only when every check returns
// nil. Typical checks: the model-health monitor's warm-up/saturation
// state. Safe to call while serving.
func (m *MetricsServer) AddReadiness(name string, fn func() error) {
	m.readyMu.Lock()
	defer m.readyMu.Unlock()
	m.checks = append(m.checks, readinessCheck{name: name, fn: fn})
}

// healthz is the liveness probe: if the process can run this handler,
// it is alive. Reports uptime so probes double as a cheap clock.
func (m *MetricsServer) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%.1f}\n", time.Since(m.started).Seconds())
}

// readyz is the readiness probe: 200 with per-check status when every
// registered check passes, 503 naming the failures otherwise. A
// draining server is never ready — readiness models shutdown as well
// as warm-up, so load balancers stop routing before the listener
// closes — but the per-check results still report, so a probe during
// drain shows what else (if anything) was failing.
func (m *MetricsServer) readyz(w http.ResponseWriter, _ *http.Request) {
	m.readyMu.Lock()
	checks := append([]readinessCheck(nil), m.checks...)
	m.readyMu.Unlock()
	type result struct {
		Name  string `json:"name"`
		Ready bool   `json:"ready"`
		Error string `json:"error,omitempty"`
	}
	results := make([]result, 0, len(checks))
	ready := true
	for _, c := range checks {
		r := result{Name: c.name, Ready: true}
		if err := c.fn(); err != nil {
			r.Ready = false
			r.Error = err.Error()
			ready = false
		}
		results = append(results, r)
	}
	draining := m.draining.Load()
	if draining {
		ready = false
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	resp := struct {
		Ready    bool     `json:"ready"`
		Draining bool     `json:"draining,omitempty"`
		Checks   []result `json:"checks"`
	}{Ready: ready, Draining: draining, Checks: results}
	data, err := json.Marshal(resp)
	if err != nil {
		fmt.Fprintf(w, "{\"ready\":%v}\n", ready)
		return
	}
	w.Write(append(data, '\n'))
}

// ServeMetrics starts a background HTTP server for the registry on
// addr ("host:port"; ":0" picks a free port). Returns the running
// server; callers should defer Close.
func ServeMetrics(addr string, r *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{
		Addr:    ln.Addr().String(),
		mux:     mux,
		started: time.Now(),
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln: ln,
	}
	// The registry being attachable is the baseline readiness: it is
	// always true here, but gives /readyz a non-empty check list even
	// before a monitor registers.
	ms.AddReadiness("registry", func() error {
		if r == nil {
			return fmt.Errorf("no metrics registry attached")
		}
		return nil
	})
	mux.HandleFunc("/healthz", ms.healthz)
	mux.HandleFunc("/readyz", ms.readyz)
	go func() { _ = ms.srv.Serve(ln) }()
	return ms, nil
}

// Close shuts the server down gracefully: readiness flips to 503
// (so probes arriving mid-shutdown see not-ready rather than a
// connection error), then the server stops accepting new connections
// and lets in-flight requests (a Prometheus scrape, a short profile)
// run to completion for up to shutdownTimeout, then hard-closes
// whatever remains. The previous implementation called
// http.Server.Close directly, which tore down in-flight scrapes
// mid-response.
func (m *MetricsServer) Close() error {
	return m.CloseTimeout(shutdownTimeout)
}

// CloseTimeout is Close with an explicit drain budget for in-flight
// requests; daemons with long-running API requests pass a larger one.
func (m *MetricsServer) CloseTimeout(d time.Duration) error {
	m.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := m.srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	_ = m.srv.Close() // drain exceeded the deadline: hard-close stragglers
	return err
}

// URL returns the server's base URL.
func (m *MetricsServer) URL() string { return "http://" + m.Addr }
