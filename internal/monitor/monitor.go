// Package monitor is auditherm's online model-health layer: it
// consumes (prediction, observation) pairs per sensor from the live
// pipeline and decides, in real time, whether the deployed thermal
// model and its sensors are still valid.
//
// The paper validates its first/second-order models (eq. 1-2) offline
// on a held-out half of the 98-day trace; this package is the online
// counterpart of that validation. Per sensor it maintains, in O(1)
// time and O(window) memory per update:
//
//   - windowed residual statistics (RMSE / bias / MAE over
//     configurable horizons) via ring buffers,
//   - EWMA-smoothed error tracks,
//   - two change detectors over the standardized residual — a
//     two-sided CUSUM (sustained-shift alarms) and a two-sided
//     Page-Hinkley test (change-point pulses) — calibrated against a
//     warm-up baseline,
//
// and drives a per-sensor health state machine
// (healthy → degraded → faulty → recovered, with hysteresis and
// minimum dwell) plus a global model-health verdict. Alarms and state
// transitions are exported as auditherm_monitor_* metrics on the obs
// Default registry, logged through an optional slog.Logger, and
// appended to an optional JSONL alert journal.
//
// Hot-path discipline: Update is 0 allocs/op in steady state
// (TestUpdateZeroAllocs); journal/log emission allocates only on the
// rare alarm and transition edges.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"auditherm/internal/obs"
)

// State is a sensor's (or the whole model's) health state.
type State int

// Health states, ordered by severity for the global verdict.
const (
	// Healthy: residuals consistent with the warm-up baseline.
	Healthy State = iota
	// Recovered: previously degraded/faulty, now quiet; a probation
	// state that returns to Healthy after a dwell without alarms.
	Recovered
	// Degraded: at least one detector alarmed recently.
	Degraded
	// Faulty: alarms persisted; the sensor's stream should not be
	// trusted (controllers may drop it from fusion).
	Faulty
)

// String returns the lower-case state name used in metrics, logs and
// journal entries.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Recovered:
		return "recovered"
	case Degraded:
		return "degraded"
	case Faulty:
		return "faulty"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrBadConfig is returned (wrapped) for invalid monitor parameters.
var ErrBadConfig = errors.New("monitor: invalid configuration")

// ErrNotReady is returned by Readiness while the monitor cannot yet
// (or can no longer) make a trustworthy call.
var ErrNotReady = errors.New("monitor: not ready")

// Config parameterizes the model-health monitor.
type Config struct {
	// Windows are the residual-statistics horizons, in updates (e.g.
	// {12, 144} = 2h and 24h of 10-minute steps). The first window is
	// the one exported to per-sensor RMSE gauges.
	Windows []int
	// EWMAAlpha is the smoothing factor of the EWMA error tracks.
	EWMAAlpha float64
	// Warmup is the number of updates per sensor used to calibrate the
	// residual baseline (mean and std) before the detectors arm.
	Warmup int
	// MinStd floors the calibrated residual std so a suspiciously
	// quiet warm-up cannot make the detectors hair-triggered.
	MinStd float64
	// CUSUM and PageHinkley configure the two change detectors.
	CUSUM       CUSUMConfig
	PageHinkley PHConfig
	// MinDwell is the minimum updates a sensor stays in a state before
	// any transition out (flap suppression).
	MinDwell int
	// FaultyAfter escalates Degraded to Faulty after this many
	// consecutive alarming updates.
	FaultyAfter int
	// RecoverAfter de-escalates Degraded/Faulty to Recovered (and
	// Recovered to Healthy) after this many consecutive quiet updates.
	RecoverAfter int
	// Clock supplies timestamps for Update (UpdateAt overrides);
	// defaults to time.Now.
	Clock func() time.Time
}

// DefaultConfig returns the calibrated defaults for a 10-minute
// residual stream: 2h/24h windows, 144-update (1-day) warm-up (long
// enough that the sigma estimate is within a few percent, which the
// detector ARLs are sensitive to), CUSUM k=0.5σ h=14σ, Page-Hinkley
// δ=0.3σ λ=25σ, 6-update dwell.
func DefaultConfig() Config {
	return Config{
		Windows:      []int{12, 144},
		EWMAAlpha:    0.05,
		Warmup:       144,
		MinStd:       1e-3,
		CUSUM:        DefaultCUSUM(),
		PageHinkley:  DefaultPH(),
		MinDwell:     6,
		FaultyAfter:  12,
		RecoverAfter: 24,
	}
}

func (c *Config) validate() error {
	if len(c.Windows) == 0 {
		return fmt.Errorf("monitor: no residual windows: %w", ErrBadConfig)
	}
	for _, w := range c.Windows {
		if w < 1 {
			return fmt.Errorf("monitor: window %d < 1: %w", w, ErrBadConfig)
		}
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		return fmt.Errorf("monitor: EWMA alpha %v outside (0,1]: %w", c.EWMAAlpha, ErrBadConfig)
	}
	if c.Warmup < 2 {
		return fmt.Errorf("monitor: warm-up %d < 2: %w", c.Warmup, ErrBadConfig)
	}
	if c.CUSUM.Drift < 0 || c.CUSUM.Threshold <= 0 || c.CUSUM.Ceiling < 0 {
		return fmt.Errorf("monitor: CUSUM config %+v: %w", c.CUSUM, ErrBadConfig)
	}
	if c.PageHinkley.Delta < 0 || c.PageHinkley.Lambda <= 0 {
		return fmt.Errorf("monitor: Page-Hinkley config %+v: %w", c.PageHinkley, ErrBadConfig)
	}
	if c.MinDwell < 0 || c.FaultyAfter < 1 || c.RecoverAfter < 1 {
		return fmt.Errorf("monitor: dwell/escalation config: %w", ErrBadConfig)
	}
	return nil
}

// Alarm is one detector trip or state transition; it is journaled,
// logged, and handed to any OnAlarm callback.
type Alarm struct {
	// Time is the (simulation or wall) time of the triggering update.
	Time time.Time `json:"ts"`
	// Kind is "alarm" for a detector rising edge, "transition" for a
	// health-state change.
	Kind string `json:"kind"`
	// Sensor is the sensor's channel name.
	Sensor string `json:"sensor"`
	// Detector names the tripping detector ("cusum+", "cusum-", "ph+",
	// "ph-"); empty for pure dwell-driven transitions.
	Detector string `json:"detector,omitempty"`
	// From and To are the health states around a transition (equal for
	// Kind "alarm").
	From State `json:"-"`
	To   State `json:"-"`
	// FromState/ToState are the string forms serialized to the journal.
	FromState string `json:"from,omitempty"`
	ToState   string `json:"to,omitempty"`
	// Residual and Z are the triggering residual and its standardized
	// value.
	Residual float64 `json:"residual"`
	Z        float64 `json:"z"`
	// Update is the per-sensor update ordinal.
	Update int64 `json:"update"`
	// SpanID is the active trace span at emission time ("sp-<n>"), when
	// the monitor was attached to one (SetSpan); it joins the JSONL
	// alert journal to the run's trace file by span identity.
	SpanID string `json:"span_id,omitempty"`
	// TraceRef is the same span as a wire reference
	// ("<run-id>/<span-id>", see obs.InjectTrace), present when the
	// span's trace carries a run ID. Unlike SpanID it is globally
	// unique, so an alarm can be joined to a span inside a merged
	// cross-process trace (tracetool merge).
	TraceRef string `json:"trace_ref,omitempty"`
}

// sensor is the per-sensor monitoring state. All mutation happens
// under mu, so independent sensors may be updated concurrently (the
// par determinism tests fan sensors across workers).
type sensor struct {
	name string

	mu       sync.Mutex
	baseline welford
	mu0      float64
	sigma0   float64
	warm     bool
	windows  []*windowStats
	track    *ewma
	cus      cusum
	ph       pageHinkley

	state       State
	dwell       int   // updates spent in the current state
	alarmStreak int   // consecutive alarming updates
	quietStreak int   // consecutive quiet updates
	alarmed     bool  // previous update alarmed (edge detection)
	updates     int64 // total updates
	alarms      int64 // detector rising edges
	lastZ       float64

	stateGauge *obs.Gauge
	rmseGauge  *obs.Gauge
	biasGauge  *obs.Gauge
}

// Monitor is a streaming model-health monitor over a fixed sensor set.
type Monitor struct {
	cfg     Config
	sensors []*sensor
	index   map[string]int

	log     *slog.Logger
	journal *Journal
	onAlarm func(Alarm)
	span    atomic.Pointer[obs.Span]

	verdictMu sync.Mutex
}

// New builds a monitor over the named sensor channels. Per-sensor
// health/RMSE gauges are registered on the obs Default registry at
// construction (off the hot path).
func New(names []string, cfg Config) (*Monitor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("monitor: no sensors: %w", ErrBadConfig)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Monitor{cfg: cfg, index: make(map[string]int, len(names))}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("monitor: empty sensor name at %d: %w", i, ErrBadConfig)
		}
		if _, dup := m.index[name]; dup {
			return nil, fmt.Errorf("monitor: duplicate sensor name %q: %w", name, ErrBadConfig)
		}
		s := &sensor{
			name:  name,
			track: newEWMA(cfg.EWMAAlpha),
			cus:   cusum{cfg: cfg.CUSUM},
			ph:    pageHinkley{cfg: cfg.PageHinkley},
		}
		for _, w := range cfg.Windows {
			s.windows = append(s.windows, newWindowStats(w))
		}
		mn := metricName(name)
		s.stateGauge = obs.NewGauge("auditherm_monitor_health_state_"+mn,
			"Health state of sensor "+name+" (0 healthy, 1 recovered, 2 degraded, 3 faulty).")
		s.rmseGauge = obs.NewGauge("auditherm_monitor_rmse_"+mn,
			fmt.Sprintf("Windowed residual RMSE (degC) of sensor %s over the first configured horizon (%d updates).", name, cfg.Windows[0]))
		s.biasGauge = obs.NewGauge("auditherm_monitor_bias_"+mn,
			"EWMA-smoothed residual bias (degC) of sensor "+name+".")
		m.index[name] = i
		m.sensors = append(m.sensors, s)
	}
	sensorsTracked.Set(float64(len(names)))
	m.publishVerdict()
	return m, nil
}

// SetLogger attaches a structured logger; alarms and transitions are
// logged at Warn, recoveries at Info. The logger's pre-bound attrs
// (run_id etc.) ride along on every record.
func (m *Monitor) SetLogger(l *slog.Logger) { m.log = l }

// SetJournal attaches an append-only JSONL alert journal.
func (m *Monitor) SetJournal(j *Journal) { m.journal = j }

// SetOnAlarm attaches a callback invoked (synchronously, under the
// sensor lock) for every alarm and transition.
func (m *Monitor) SetOnAlarm(fn func(Alarm)) { m.onAlarm = fn }

// SetSpan attaches the run's active trace span: every subsequent alarm
// carries its ID (joining the alert journal to the trace file) and is
// mirrored onto the span as a timestamped event. Safe to call
// concurrently with Update; nil detaches.
func (m *Monitor) SetSpan(sp *obs.Span) { m.span.Store(sp) }

// SensorNames returns the monitored channel names in index order.
func (m *Monitor) SensorNames() []string {
	out := make([]string, len(m.sensors))
	for i, s := range m.sensors {
		out[i] = s.name
	}
	return out
}

// Index returns the sensor index for a channel name, or -1.
func (m *Monitor) Index(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	return -1
}

// Update consumes one (prediction, observation) pair for sensor i,
// stamped with the monitor clock. It returns the sensor's health
// state after the update. 0 allocs/op in steady state.
func (m *Monitor) Update(i int, pred, obs float64) State {
	return m.UpdateAt(i, pred, obs, m.cfg.Clock())
}

// UpdateAt is Update with an explicit timestamp (simulation time).
func (m *Monitor) UpdateAt(i int, pred, obs float64, t time.Time) State {
	s := m.sensors[i]
	r := obs - pred

	s.mu.Lock()
	s.updates++
	updatesTotal.Inc()
	if math.IsNaN(r) || math.IsInf(r, 0) {
		// A non-finite residual is itself an alarm-worthy event, but it
		// must not poison the running statistics.
		nonFiniteTotal.Inc()
		st, changed := m.alarmStep(s, t, true, "nonfinite", r, math.Inf(1))
		s.mu.Unlock()
		if changed {
			m.publishVerdict()
		}
		return st
	}
	for _, w := range s.windows {
		w.push(r)
	}
	s.track.push(r)
	residualAbs.Observe(math.Abs(r))
	s.rmseGauge.Set(s.windows[0].RMSE())
	s.biasGauge.Set(s.track.Mean())

	if !s.warm {
		s.baseline.push(r)
		if s.baseline.n >= int64(m.cfg.Warmup) {
			s.mu0 = s.baseline.mean
			s.sigma0 = s.baseline.Std()
			if s.sigma0 < m.cfg.MinStd {
				s.sigma0 = m.cfg.MinStd
			}
			s.warm = true
		}
		st := s.state
		s.mu.Unlock()
		return st
	}

	z := (r - s.mu0) / s.sigma0
	s.lastZ = z
	cPos, cNeg := s.cus.step(z)
	pPos, pNeg := s.ph.step(z)
	alarming := cPos || cNeg || pPos || pNeg
	det := ""
	switch {
	case cPos:
		det = "cusum+"
	case cNeg:
		det = "cusum-"
	case pPos:
		det = "ph+"
	case pNeg:
		det = "ph-"
	}
	st, changed := m.alarmStep(s, t, alarming, det, r, z)
	s.mu.Unlock()
	if changed {
		m.publishVerdict()
	}
	return st
}

// alarmStep advances the health state machine given this update's
// alarm signal. Caller holds s.mu; the verdict gauges are republished
// by the caller after unlocking (publishVerdict takes every sensor
// lock). changed reports whether the state transitioned.
func (m *Monitor) alarmStep(s *sensor, t time.Time, alarming bool, det string, r, z float64) (st State, changed bool) {
	s.dwell++
	if alarming {
		s.alarmStreak++
		s.quietStreak = 0
		if !s.alarmed {
			// Rising edge: a new alarm episode.
			s.alarms++
			alarmsTotal.Inc()
			m.emit(Alarm{
				Time: t, Kind: "alarm", Sensor: s.name, Detector: det,
				From: s.state, To: s.state,
				FromState: s.state.String(), ToState: s.state.String(),
				Residual: r, Z: z, Update: s.updates,
			})
		}
	} else {
		s.quietStreak++
		s.alarmStreak = 0
	}
	s.alarmed = alarming

	next := s.state
	switch s.state {
	case Healthy, Recovered:
		if alarming {
			next = Degraded
		} else if s.state == Recovered && s.quietStreak >= m.cfg.RecoverAfter && s.dwell >= m.cfg.MinDwell {
			next = Healthy
		}
	case Degraded:
		if s.alarmStreak >= m.cfg.FaultyAfter && s.dwell >= m.cfg.MinDwell {
			next = Faulty
		} else if s.quietStreak >= m.cfg.RecoverAfter && s.dwell >= m.cfg.MinDwell {
			next = Recovered
		}
	case Faulty:
		if s.quietStreak >= m.cfg.RecoverAfter && s.dwell >= m.cfg.MinDwell {
			next = Recovered
		}
	}
	if next != s.state {
		from := s.state
		s.state = next
		s.dwell = 0
		changed = true
		transitionsTotal.Inc()
		s.stateGauge.Set(float64(next))
		m.emit(Alarm{
			Time: t, Kind: "transition", Sensor: s.name, Detector: det,
			From: from, To: next,
			FromState: from.String(), ToState: next.String(),
			Residual: r, Z: z, Update: s.updates,
		})
	}
	return s.state, changed
}

// emit fans an alarm out to the journal, the structured log, the
// attached trace span, and the callback. Called under the sensor lock;
// all sinks are edge-rate.
func (m *Monitor) emit(a Alarm) {
	if sp := m.span.Load(); sp != nil {
		a.SpanID = sp.ID()
		a.TraceRef = sp.WireRef()
		sp.EventAttr("monitor/"+a.Kind, obs.String("sensor", a.Sensor))
	}
	if m.journal != nil {
		m.journal.Append(a)
	}
	if m.log != nil {
		lvl := slog.LevelWarn
		if a.Kind == "transition" && (a.To == Recovered || a.To == Healthy) {
			lvl = slog.LevelInfo
		}
		m.log.Log(context.Background(), lvl, "model-health "+a.Kind,
			slog.String("sensor", a.Sensor),
			slog.String("detector", a.Detector),
			slog.String("from", a.FromState),
			slog.String("to", a.ToState),
			slog.Float64("residual", a.Residual),
			slog.Float64("z", a.Z),
			slog.Int64("update", a.Update),
			slog.Time("sim_time", a.Time),
		)
	}
	if m.onAlarm != nil {
		m.onAlarm(a)
	}
}

// publishVerdict recomputes the global health gauges.
func (m *Monitor) publishVerdict() {
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
	var counts [4]int
	worst := Healthy
	for _, s := range m.sensors {
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		counts[st]++
		if st > worst {
			worst = st
		}
	}
	globalHealth.Set(float64(worst))
	sensorsHealthy.Set(float64(counts[Healthy] + counts[Recovered]))
	sensorsDegraded.Set(float64(counts[Degraded]))
	sensorsFaulty.Set(float64(counts[Faulty]))
}

// Verdict returns the global model-health state (the worst sensor
// state) and the number of sensors per state.
func (m *Monitor) Verdict() (worst State, perState map[State]int) {
	perState = map[State]int{}
	for _, s := range m.sensors {
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		perState[st]++
		if st > worst {
			worst = st
		}
	}
	return worst, perState
}

// StateOf returns sensor i's current health state.
func (m *Monitor) StateOf(i int) State {
	s := m.sensors[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Readiness implements the /readyz contract: the monitor is ready
// once every sensor has completed its warm-up and no detector is
// saturated (pinned at its ceiling). It returns nil when ready and a
// descriptive ErrNotReady otherwise.
func (m *Monitor) Readiness() error {
	for _, s := range m.sensors {
		s.mu.Lock()
		warm, sat, seen := s.warm, s.cus.saturated(), s.baseline.n
		s.mu.Unlock()
		if !warm {
			return fmt.Errorf("%w: sensor %s warming up (%d/%d updates)",
				ErrNotReady, s.name, seen, m.cfg.Warmup)
		}
		if sat {
			return fmt.Errorf("%w: sensor %s CUSUM saturated", ErrNotReady, s.name)
		}
	}
	return nil
}

// SensorSnapshot is a point-in-time copy of one sensor's monitoring
// state; used by tests (including the cross-worker determinism suite)
// and debug dumps.
type SensorSnapshot struct {
	Name        string    `json:"name"`
	State       State     `json:"state"`
	StateName   string    `json:"state_name"`
	Updates     int64     `json:"updates"`
	Alarms      int64     `json:"alarms"`
	Warm        bool      `json:"warm"`
	Mu0         float64   `json:"mu0"`
	Sigma0      float64   `json:"sigma0"`
	LastZ       float64   `json:"last_z"`
	CUSUMPos    float64   `json:"cusum_pos"`
	CUSUMNeg    float64   `json:"cusum_neg"`
	EWMABias    float64   `json:"ewma_bias"`
	EWMAAbs     float64   `json:"ewma_abs"`
	WindowRMSE  []float64 `json:"window_rmse"`
	WindowBias  []float64 `json:"window_bias"`
	WindowMAE   []float64 `json:"window_mae"`
	AlarmStreak int       `json:"alarm_streak"`
	QuietStreak int       `json:"quiet_streak"`
}

// Snapshot returns per-sensor snapshots in index order.
func (m *Monitor) Snapshot() []SensorSnapshot {
	out := make([]SensorSnapshot, len(m.sensors))
	for i, s := range m.sensors {
		s.mu.Lock()
		snap := SensorSnapshot{
			Name: s.name, State: s.state, StateName: s.state.String(),
			Updates: s.updates, Alarms: s.alarms, Warm: s.warm,
			Mu0: s.mu0, Sigma0: s.sigma0, LastZ: s.lastZ,
			CUSUMPos: s.cus.sPos, CUSUMNeg: s.cus.sNeg,
			EWMABias: s.track.Mean(), EWMAAbs: s.track.Abs(),
			AlarmStreak: s.alarmStreak, QuietStreak: s.quietStreak,
		}
		for _, w := range s.windows {
			snap.WindowRMSE = append(snap.WindowRMSE, w.RMSE())
			snap.WindowBias = append(snap.WindowBias, w.Bias())
			snap.WindowMAE = append(snap.WindowMAE, w.MAE())
		}
		s.mu.Unlock()
		out[i] = snap
	}
	return out
}

// metricName sanitizes a channel name into a Prometheus-safe metric
// name suffix.
func metricName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
