package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// StageStat is one pipeline stage's resource usage and tallies in a
// RunManifest.
type StageStat struct {
	WallMS float64          `json:"wall_ms"`
	CPUMS  float64          `json:"cpu_ms,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// ArtifactStat records one pipeline stage's cache interaction in a
// RunManifest: the content-addressed key the stage resolved to, the
// digest and size of the artifact it produced or rehydrated, and
// whether the stage was served from the warm cache.
type ArtifactStat struct {
	Key      string  `json:"key"`
	Digest   string  `json:"digest,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	WallMS   float64 `json:"wall_ms"`
}

// RunManifest captures the provenance and headline results of one CLI
// or experiment run. It is written as JSON at the end of the run so
// two runs can be diffed field by field.
type RunManifest struct {
	Tool       string    `json:"tool"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	WallMS     float64   `json:"wall_ms"`
	CPUMS      float64   `json:"cpu_ms,omitempty"`

	GitDescribe string `json:"git_describe,omitempty"`
	GoVersion   string `json:"go_version"`
	Hostname    string `json:"hostname,omitempty"`
	NumCPU      int    `json:"num_cpu"`
	// GoMaxProcs is runtime.GOMAXPROCS at run start; tracetool diff
	// compares it (with GoVersion, NumCPU, Hostname) to flag
	// cross-machine comparisons instead of reporting false
	// regressions.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`

	// RunID correlates this manifest with the run's slog records and
	// alert-journal entries (they all carry the same run_id).
	RunID string `json:"run_id,omitempty"`
	// CallerRun/CallerSpan name the remote span whose request caused
	// this run (from the X-Auditherm-Trace header), so a daemon's
	// per-request manifest resolves to the calling process's trace.
	CallerRun  string `json:"caller_run,omitempty"`
	CallerSpan uint64 `json:"caller_span,omitempty"`
	// AlertLog is the path of the append-only JSONL alert journal
	// written during the run, if one was requested.
	AlertLog string `json:"alert_log,omitempty"`
	// TraceFile is the path of the JSONL span trace written during the
	// run (-trace), if one was requested: the run's full span record.
	TraceFile string `json:"trace_file,omitempty"`

	Seed       int64             `json:"seed,omitempty"`
	Config     map[string]string `json:"config,omitempty"`
	ConfigHash string            `json:"config_hash,omitempty"`

	Stages map[string]StageStat `json:"stages,omitempty"`
	// Artifacts records each pipeline stage's cache key, artifact
	// digest and hit/miss outcome (see internal/pipeline).
	Artifacts map[string]ArtifactStat `json:"artifacts,omitempty"`
	Metrics   map[string]float64      `json:"metrics,omitempty"` // headline results: RMSE per order, cluster count, selection scores
	Notes     []string                `json:"notes,omitempty"`
}

// ManifestBuilder accumulates a RunManifest over the lifetime of a
// run. Not safe for concurrent use; stage boundaries are sequential in
// the CLIs.
type ManifestBuilder struct {
	m         RunManifest
	startCPU  time.Duration
	stageName string
	stageWall time.Time
	stageCPU  time.Duration
}

// NewManifest starts a manifest for the named tool, capturing start
// time, environment, and git provenance.
func NewManifest(tool string) *ManifestBuilder {
	host, _ := os.Hostname()
	b := &ManifestBuilder{
		m: RunManifest{
			Tool:        tool,
			StartedAt:   time.Now(),
			GitDescribe: gitDescribe(),
			GoVersion:   runtime.Version(),
			Hostname:    host,
			NumCPU:      runtime.NumCPU(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Stages:      map[string]StageStat{},
			Metrics:     map[string]float64{},
		},
		startCPU: processCPU(),
	}
	return b
}

// SetSeed records the run's RNG seed.
func (b *ManifestBuilder) SetSeed(seed int64) { b.m.Seed = seed }

// SetRunID records the run ID correlating the manifest with log
// records and alert-journal entries.
func (b *ManifestBuilder) SetRunID(id string) { b.m.RunID = id }

// SetCaller records the remote caller's trace reference (a zero ref
// is ignored, so untraced callers leave the fields absent).
func (b *ManifestBuilder) SetCaller(ref TraceRef) {
	if ref.IsZero() {
		return
	}
	b.m.CallerRun = ref.RunID
	b.m.CallerSpan = ref.Span
}

// SetAlertLog records the path of the run's alert journal.
func (b *ManifestBuilder) SetAlertLog(path string) { b.m.AlertLog = path }

// SetTraceFile records the path of the run's JSONL span trace.
func (b *ManifestBuilder) SetTraceFile(path string) { b.m.TraceFile = path }

// SetConfig records the effective configuration as a flat string map
// and derives a deterministic sha256 hash over its sorted key=value
// pairs.
func (b *ManifestBuilder) SetConfig(cfg map[string]string) {
	b.m.Config = cfg
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, cfg[k])
	}
	b.m.ConfigHash = hex.EncodeToString(h.Sum(nil))[:16]
}

// SetMetric records one headline result metric.
func (b *ManifestBuilder) SetMetric(name string, v float64) { b.m.Metrics[name] = v }

// AddNote appends a free-form provenance note.
func (b *ManifestBuilder) AddNote(note string) { b.m.Notes = append(b.m.Notes, note) }

// StartStage begins a named pipeline stage, closing any stage still
// open. Stage wall and CPU time land in Stages[name].
func (b *ManifestBuilder) StartStage(name string) {
	b.EndStage()
	b.stageName = name
	b.stageWall = time.Now()
	b.stageCPU = processCPU()
}

// EndStage closes the currently open stage, if any.
func (b *ManifestBuilder) EndStage() {
	if b.stageName == "" {
		return
	}
	st := b.m.Stages[b.stageName]
	st.WallMS += float64(time.Since(b.stageWall)) / float64(time.Millisecond)
	if cpu := processCPU() - b.stageCPU; cpu > 0 {
		st.CPUMS += float64(cpu) / float64(time.Millisecond)
	}
	b.m.Stages[b.stageName] = st
	b.stageName = ""
}

// AddStageWall accumulates externally measured wall time into a
// stage's entry without the StartStage/EndStage bracket — the pipeline
// engine uses it because its stages may run concurrently, which the
// single open-stage bracket cannot express.
func (b *ManifestBuilder) AddStageWall(name string, wall time.Duration) {
	st := b.m.Stages[name]
	st.WallMS += float64(wall) / float64(time.Millisecond)
	b.m.Stages[name] = st
}

// StageArtifact records a pipeline stage's cache interaction.
func (b *ManifestBuilder) StageArtifact(stage string, a ArtifactStat) {
	if b.m.Artifacts == nil {
		b.m.Artifacts = map[string]ArtifactStat{}
	}
	b.m.Artifacts[stage] = a
}

// StageCount attaches a tally to a stage (creating the stage entry if
// needed).
func (b *ManifestBuilder) StageCount(stage, key string, v int64) {
	st := b.m.Stages[stage]
	if st.Counts == nil {
		st.Counts = map[string]int64{}
	}
	st.Counts[key] = v
	b.m.Stages[stage] = st
}

// Finish closes any open stage, stamps end times, and returns the
// completed manifest.
func (b *ManifestBuilder) Finish() RunManifest {
	b.EndStage()
	b.m.FinishedAt = time.Now()
	b.m.WallMS = float64(b.m.FinishedAt.Sub(b.m.StartedAt)) / float64(time.Millisecond)
	if cpu := processCPU() - b.startCPU; cpu > 0 {
		b.m.CPUMS = float64(cpu) / float64(time.Millisecond)
	}
	return b.m
}

// WriteFile finishes the manifest and writes it as indented JSON to
// path.
func (b *ManifestBuilder) WriteFile(path string) error {
	m := b.Finish()
	return WriteManifestFile(path, m)
}

// WriteManifestFile writes a manifest as indented JSON to path.
func WriteManifestFile(path string, m RunManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifestFile reads a manifest previously written with
// WriteManifestFile.
func ReadManifestFile(path string) (RunManifest, error) {
	var m RunManifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(data, &m)
	return m, err
}

// gitDescribe returns `git describe --always --dirty` for the current
// working tree, or "" when git is unavailable. The result is memoized:
// the working tree does not change under a running process, and the
// serving daemon builds one manifest per request — forking git on each
// would dominate warm-request latency.
func gitDescribe() string {
	gitDescribeOnce.Do(func() {
		out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
		if err != nil {
			return
		}
		gitDescribeCached = strings.TrimSpace(string(out))
	})
	return gitDescribeCached
}

var (
	gitDescribeOnce   sync.Once
	gitDescribeCached string
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
