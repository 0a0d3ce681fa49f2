package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/experiments"
	"auditherm/internal/fleet"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// Query-parameter helpers: each reads one parameter with a default and
// echoes the effective value into params, so the canonical parameter
// map (the response-cache key) covers every knob whether the client
// spelled it or not.

func qStr(q url.Values, params map[string]string, key, def string) string {
	v := q.Get(key)
	if v == "" {
		v = def
	}
	params[key] = v
	return v
}

func qInt(q url.Values, params map[string]string, key string, def int) (int, error) {
	v := q.Get(key)
	if v == "" {
		params[key] = strconv.Itoa(def)
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	params[key] = strconv.Itoa(n)
	return n, nil
}

func qFloat(q url.Values, params map[string]string, key string, def float64) (float64, error) {
	v := q.Get(key)
	if v == "" {
		params[key] = strconv.FormatFloat(def, 'g', -1, 64)
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	params[key] = strconv.FormatFloat(f, 'g', -1, 64)
	return f, nil
}

func qDur(q url.Values, params map[string]string, key string, def time.Duration) (time.Duration, error) {
	v := q.Get(key)
	if v == "" {
		params[key] = def.String()
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	params[key] = d.String()
	return d, nil
}

// qIntIn reads an integer parameter that must lie in [lo, hi].
func qIntIn(q url.Values, params map[string]string, key string, def, lo, hi int) (int, error) {
	n, err := qInt(q, params, key, def)
	if err != nil {
		return 0, err
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("parameter %s: %d outside [%d, %d]", key, n, lo, hi)
	}
	return n, nil
}

// qFinite reads a float parameter that must be finite: NaN or ±Inf
// would run a whole study to a meaningless result.
func qFinite(q url.Values, params map[string]string, key string, def float64) (float64, error) {
	f, err := qFloat(q, params, key, def)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s: %v is not finite", key, f)
	}
	return f, nil
}

// qHours reads the schedule's on and off hours, each in [0, 24].
func qHours(q url.Values, params map[string]string, defOn, defOff int) (on, off int, err error) {
	if on, err = qIntIn(q, params, "on", defOn, 0, 24); err != nil {
		return 0, 0, err
	}
	if off, err = qIntIn(q, params, "off", defOff, 0, 24); err != nil {
		return 0, 0, err
	}
	return on, off, nil
}

func parseMetric(name string) (cluster.Metric, error) {
	switch name {
	case "euclidean":
		return cluster.Euclidean, nil
	case "correlation":
		return cluster.Correlation, nil
	}
	return 0, fmt.Errorf("parameter metric: unknown %q (euclidean or correlation)", name)
}

// frameNodes wires the shared head of the analysis endpoints: the
// simulated dataset and its identification frame.
func (s *Server) frameNodes(eng *pipeline.Engine) (*pipeline.Node[*dataset.Dataset], *pipeline.Node[*timeseries.Frame]) {
	ds := pipeline.Simulate(eng, s.cfg.Dataset)
	return ds, pipeline.DatasetFrame(eng, ds)
}

// parseSysid: GET /v1/sysid?order=2&mode=occupied&horizon=4h&on=6&off=21&max_missing=0.5
// → load → identify → evaluate; the body is the free-run EvalArtifact.
func (s *Server) parseSysid(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	orderN, err := qInt(q, params, "order", 2)
	if err != nil {
		return nil, nil, err
	}
	var order sysid.Order
	switch orderN {
	case 1:
		order = sysid.FirstOrder
	case 2:
		order = sysid.SecondOrder
	default:
		return nil, nil, fmt.Errorf("parameter order: %d not supported (1 or 2)", orderN)
	}
	var mode dataset.Mode
	switch m := qStr(q, params, "mode", "occupied"); m {
	case "occupied":
		mode = dataset.Occupied
	case "unoccupied":
		mode = dataset.Unoccupied
	default:
		return nil, nil, fmt.Errorf("parameter mode: unknown %q (occupied or unoccupied)", m)
	}
	horizon, err := qDur(q, params, "horizon", 4*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	if horizon <= 0 {
		return nil, nil, fmt.Errorf("parameter horizon: %v must be positive", horizon)
	}
	onHour, offHour, err := qHours(q, params, 6, 21)
	if err != nil {
		return nil, nil, err
	}
	maxMissing, err := qFinite(q, params, "max_missing", 0.5)
	if err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		_, frame := s.frameNodes(eng)
		idCfg := pipeline.IdentifyConfig{
			Order: order, Mode: mode,
			OnHour: onHour, OffHour: offHour,
			MaxMissing: maxMissing,
		}
		model := pipeline.Identify(eng, frame, idCfg)
		ev, err := pipeline.Evaluate(eng, frame, model, idCfg, horizon).Get(ctx)
		if err != nil {
			return nil, err
		}
		b.SetMetric("spectral_radius", float64(ev.SpectralRadius))
		b.SetMetric("evaluated_windows", float64(ev.Windows))
		return ev, nil
	}
	return params, compute, nil
}

// parseCluster: GET /v1/cluster?metric=correlation&k=0&on=6&off=21&seed=11
// → spectral clustering; the body is the ClusterArtifact. k = 0 picks
// the cluster count by eigengap; k may not exceed the daemon dataset's
// sensor count.
func (s *Server) parseCluster(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	metric, err := parseMetric(qStr(q, params, "metric", "correlation"))
	if err != nil {
		return nil, nil, err
	}
	k, err := qIntIn(q, params, "k", 0, 0, s.sensors)
	if err != nil {
		return nil, nil, err
	}
	onHour, offHour, err := qHours(q, params, 6, 21)
	if err != nil {
		return nil, nil, err
	}
	seed, err := qInt(q, params, "seed", 11)
	if err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		_, frame := s.frameNodes(eng)
		ca, err := pipeline.ClusterSensors(eng, frame, pipeline.ClusterConfig{
			Metric: metric, K: k,
			OnHour: onHour, OffHour: offHour,
			Seed: int64(seed),
		}).Get(ctx)
		if err != nil {
			return nil, err
		}
		b.SetMetric("clusters", float64(ca.K))
		return ca, nil
	}
	return params, compute, nil
}

// parseSelect: GET /v1/select?metric=correlation&k=2&seeds=10&on=6&off=21
// → cluster (training half) → representative selection; the body is
// the SelectionArtifact with per-method scores (SMS, SRS, RS and the
// incremental GP placement). k is bounded as in parseCluster.
func (s *Server) parseSelect(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	metric, err := parseMetric(qStr(q, params, "metric", "correlation"))
	if err != nil {
		return nil, nil, err
	}
	k, err := qIntIn(q, params, "k", 2, 0, s.sensors)
	if err != nil {
		return nil, nil, err
	}
	seeds, err := qIntIn(q, params, "seeds", 10, 1, maxSeeds)
	if err != nil {
		return nil, nil, err
	}
	onHour, offHour, err := qHours(q, params, 6, 21)
	if err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		_, frame := s.frameNodes(eng)
		clusters := pipeline.ClusterSensors(eng, frame, pipeline.ClusterConfig{
			Metric: metric, K: k,
			OnHour: onHour, OffHour: offHour,
			Seed: 11, TrainHalf: true,
		})
		sa, err := pipeline.SelectRepresentatives(eng, frame, clusters, pipeline.SelectConfig{
			OnHour: onHour, OffHour: offHour,
			Seeds: seeds, GPMode: "fast",
		}).Get(ctx)
		if err != nil {
			return nil, err
		}
		for _, m := range sa.Methods {
			b.SetMetric("score_"+m.Method, float64(m.Score))
		}
		return sa, nil
	}
	return params, compute, nil
}

// parseControl: GET /v1/control?controller=deadband&days=7&setpoint=21&flow=0.3&seed=1
// → closed-loop control study; the body is the ControlSummary.
func (s *Server) parseControl(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	controller := qStr(q, params, "controller", "deadband")
	if controller != "deadband" && controller != "fixed" {
		return nil, nil, fmt.Errorf("parameter controller: unknown %q (deadband or fixed)", controller)
	}
	days, err := qIntIn(q, params, "days", 7, 1, maxDays)
	if err != nil {
		return nil, nil, err
	}
	setpoint, err := qFinite(q, params, "setpoint", 21)
	if err != nil {
		return nil, nil, err
	}
	flow, err := qFinite(q, params, "flow", 0.3)
	if err != nil {
		return nil, nil, err
	}
	seed, err := qInt(q, params, "seed", 1)
	if err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		cs, err := pipeline.ControlRun(eng, pipeline.ControlConfig{
			Controller: controller, Days: days,
			Setpoint: setpoint, Flow: flow, Seed: int64(seed),
		}, nil).Get(ctx)
		if err != nil {
			return nil, err
		}
		b.SetMetric("comfort_rms_degc", float64(cs.ComfortRMS))
		b.SetMetric("cooling_kwh", float64(cs.CoolingKWh))
		return cs, nil
	}
	return params, compute, nil
}

// parseReport: GET /v1/report?id=table1&control_days=7 → one of the
// paper's experiment reports from the shared catalog; the body is the
// Report (rendered text plus headline metrics).
func (s *Server) parseReport(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	id := qStr(q, params, "id", "")
	if !s.reportSet[id] {
		return nil, nil, fmt.Errorf("parameter id: unknown experiment %q (see /v1/experiments)", id)
	}
	controlDays, err := qIntIn(q, params, "control_days", 7, 1, maxDays)
	if err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		src := experiments.NewEnvSource(eng, s.cfg.Dataset)
		// Cross-request environment cache: a previous report request's
		// derived Env (same dataset config by construction) skips both
		// the dataset decode and the derivation on this one.
		if env := s.cachedEnv(); env != nil {
			src.Seed(env)
		}
		var node *pipeline.Node[*experiments.Report]
		for _, ex := range experiments.Catalog(eng, src, controlDays) {
			if ex.ID == id {
				node = ex.Node
				break
			}
		}
		if node == nil {
			return nil, fmt.Errorf("experiment %q missing from catalog", id)
		}
		rep, err := node.Get(ctx)
		if err != nil {
			return nil, err
		}
		s.storeEnv(src.Derived())
		for k, v := range rep.Metrics {
			b.SetMetric(k, float64(v))
		}
		return rep, nil
	}
	return params, compute, nil
}

// maxFleetN bounds /v1/fleet portfolio size: a fleet request is N full
// pipeline runs on one daemon, so the cap keeps a single request from
// monopolizing the admission gate for minutes.
const maxFleetN = 64

// maxDays bounds every simulated day count a request may ask for: the
// control study's days (/v1/control, /v1/report) and a fleet member's
// trace and control days (/v1/fleet). The paper's trace is 98 days, so
// no request simulates more of one building than the paper did, and a
// control study stays within seconds (one day is ~1,440 ticks).
const maxDays = 98

// maxSeeds bounds /v1/select's random draws: each draw is one more
// SRS and RS evaluation, so a request's cost grows with it; the cap is
// a hundredfold the default 10.
const maxSeeds = 1000

// parseFleet: GET /v1/fleet?n=8&archetypes=auditorium,office&seed=1&days=6&control_days=2
// → a portfolio of randomized buildings through the full pipeline; the
// body is the fleet.Report with per-archetype distributions. Member
// stages are content-addressed like any other, so a repeated request
// is served from the response LRU and a changed-seed request still
// shares nothing (every member chain re-keys).
func (s *Server) parseFleet(q url.Values) (map[string]string, computeFn, error) {
	params := map[string]string{}
	n, err := qInt(q, params, "n", 8)
	if err != nil {
		return nil, nil, err
	}
	if n < 1 || n > maxFleetN {
		return nil, nil, fmt.Errorf("parameter n: %d outside [1, %d]", n, maxFleetN)
	}
	archCSV := qStr(q, params, "archetypes", strings.Join(building.Archetypes(), ","))
	seed, err := qInt(q, params, "seed", 1)
	if err != nil {
		return nil, nil, err
	}
	days, err := qIntIn(q, params, "days", 6, 1, maxDays)
	if err != nil {
		return nil, nil, err
	}
	controlDays, err := qIntIn(q, params, "control_days", 2, 1, maxDays)
	if err != nil {
		return nil, nil, err
	}
	setpoint, err := qFinite(q, params, "setpoint", 22)
	if err != nil {
		return nil, nil, err
	}
	controller := qStr(q, params, "controller", "deadband")
	cfg := fleet.Config{
		N:           n,
		Seed:        int64(seed),
		Days:        days,
		ControlDays: controlDays,
		Setpoint:    setpoint,
		Controller:  controller,
	}
	for _, a := range strings.Split(archCSV, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Archetypes = append(cfg.Archetypes, a)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	compute := func(ctx context.Context, eng *pipeline.Engine, b *obs.ManifestBuilder) (any, error) {
		rep, err := fleet.Run(ctx, eng, cfg)
		if err != nil {
			return nil, err
		}
		b.SetMetric("fleet_buildings", float64(len(rep.Buildings)))
		for arch, st := range rep.PerArchetype {
			b.SetMetric(arch+"_model_rmse_p50", float64(st.ModelRMSE.P50))
		}
		return rep, nil
	}
	return params, compute, nil
}

// experimentsIndex: GET /v1/experiments — the catalog ids, for request
// validation and discovery. Static per process; not a pipeline run.
func (s *Server) experimentsIndex(w http.ResponseWriter, r *http.Request) {
	body, err := json.MarshalIndent(map[string]any{"experiments": s.reportIDs}, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(body, '\n'))
}

// status: GET /v1/status — live daemon state (never cached; the body
// is intentionally non-deterministic).
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	s.envMu.Lock()
	envCached := s.env != nil
	s.envMu.Unlock()
	store := ""
	if s.backend != nil {
		store = s.backend.Name()
	}
	// Per-endpoint trace-propagation tallies: whether merged traces
	// can be trusted to be complete.
	endpoints := make(map[string]any, len(s.epTrace))
	for name, st := range s.epTrace {
		endpoints[name] = map[string]int64{
			"links":       st.links.Load(),
			"link_errors": st.linkErrors.Load(),
			"span_drops":  st.spanDrops.Load(),
		}
	}
	resp := map[string]any{
		"uptime_s":               time.Since(s.started).Seconds(),
		"inflight":               s.InFlight(),
		"draining":               s.Draining(),
		"response_cache_entries": s.cache.len(),
		"env_cached":             envCached,
		"artifact_cache_dir":     s.cfg.CacheDir,
		"artifact_store":         store,
		"artifact_mem_hits":      obs.Default.CounterValue("auditherm_artifact_mem_hits_total"),
		"artifact_local_hits":    obs.Default.CounterValue("auditherm_artifact_local_hits_total"),
		"requests_total":         obs.Default.CounterValue("auditherm_serve_requests_total"),
		"response_cache_hits":    obs.Default.CounterValue("auditherm_serve_response_cache_hits_total"),
		"response_cache_misses":  obs.Default.CounterValue("auditherm_serve_response_cache_misses_total"),
		"trace": map[string]any{
			"links_total":       obs.Default.CounterValue("auditherm_trace_links_total"),
			"link_errors_total": obs.Default.CounterValue("auditherm_trace_link_errors_total"),
			"endpoints":         endpoints,
		},
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(body, '\n'))
}
