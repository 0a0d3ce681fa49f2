# auditherm build/verify targets. `make check` is the tier-1 gate
# (see ROADMAP.md): format and vet, build, race-test the
# concurrency-sensitive packages, then run the full suite. The suite
# also holds the performance floors: zero-alloc hot paths, the sharded
# store against its flat reference, the GP fast path against the naive
# one, warm pipeline and fleet reruns against cold ones, and the
# daemon's p99 and hit rate under load.

GO ?= go

.PHONY: check vet cross build examples test race flake fuzz clean

check: vet cross build examples race test

# gofmt -l lists every file gofmt would rewrite; any listed file
# fails the gate. perfbench/ is its own module, so the root's vet and
# build skip it; vetting it here type-checks the benchmark harness
# against the internal APIs it calls (its go.mod replaces auditherm
# with ../, so this needs no network).
vet:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l:"; echo "$$files"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# The spectral-radius kernel has an AVX2 assembly file for amd64 and a
# portable Go kernel for every other architecture; vetting an arm64
# build keeps the portable path compiling (and its tests type-checked)
# on amd64 hosts. On amd64, vet's asmdecl pass checks the assembly.
cross:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

# Every example program must keep compiling against the current APIs
# (go build discards the binaries; this is a pure build check).
examples:
	$(GO) build ./examples/...

# internal/obs is hammered from 16 goroutines in its tests and
# internal/building is the per-cell hot path the obs counters ride on.
# internal/par is the worker pool the pipeline fan-out runs on (its
# tests cover cancellation and panic capture under load), and
# internal/sysid fans its per-sensor fits out over it.
# internal/mat, internal/cluster and internal/selection are the serial
# kernels those concurrent stages call; mat and selection carry the
# shared-factorization GP placement kernels (workspace-reusing
# solves). internal/monitor publishes health verdicts read concurrently
# by /readyz and the metrics scraper while the control loop updates it;
# all eight get the race detector every time. internal/pipeline
# resolves DAG dependencies concurrently and memoizes nodes across
# goroutines, and internal/artifact backs it with the tiered storage
# stack — in-memory LRU, sharded local disk with concurrent eviction,
# remote fetches under singleflight — whose churn suite drives
# overlapping Put/Get/evict from 8 workers against every backend; both
# join the gate. The tracing subsystem
# rides the same gate: obs spans mutate under par workers
# (TestConcurrentSpanMutation drives StartChild/SetAttr/Event/End from
# 8 goroutines against a live JSONL exporter), 8 goroutines end spans
# into the /debug/trace ring while another flushes and snapshots it
# (TestTraceRingConcurrentExport), and internal/traceview parses what
# they emit. Trace propagation widens the surface: Remote
# fetch/put start client spans and inject X-Auditherm-Trace from 8
# par workers under singleflight (TestRemoteTraceConcurrent), the
# lock-free WireRef/sink parent walks ride every span End, and
# internal/serve extracts links and tallies per-endpoint counters
# while requests race the drain gate — serve joins the race gate for
# that. Its load test is a timing floor that `test` runs; a race build
# would spend 5 s timing the instrumentation, and
# TestConcurrentMixedRequests races the same sysid, cluster, select
# and control endpoints. internal/artifact races alone: its sharded
# store's 2x floor over the flat reference times 8 workers, and beside
# internal/mat's 14 s race binary it read 1.8-1.9x (3.5-5.7x alone).
race:
	$(GO) test -race -short ./internal/fleet
	$(GO) test -race ./internal/artifact
	$(GO) test -race -skip '^TestSteadyLoadP99AndHitRate$$' ./internal/obs ./internal/building ./internal/par ./internal/sysid ./internal/cluster ./internal/selection ./internal/mat ./internal/monitor ./internal/pipeline ./internal/traceview ./internal/serve

# TestFleetReportDeterminism times a serial fleet against an 8-worker
# one, so it runs alone after the rest of the suite: other packages'
# test binaries would otherwise share the cores its floor measures.
test:
	$(GO) test -skip '^TestFleetReportDeterminism$$' ./...
	$(GO) test -run '^TestFleetReportDeterminism$$' ./internal/fleet

# The timing-sensitive end-to-end tests, 20 runs each: the daemon's
# SIGTERM drain, the hvacsim monitor's alarm path, the cross-process
# trace merge against a live daemon, and traced remote-store fetches
# from 8 workers. A race that one `make check` run passes by luck
# rarely survives twenty.
flake:
	$(GO) test -count=20 -run '^TestSigtermDrainsWithoutLosingResponses$$' ./cmd/serve
	$(GO) test -count=20 -run '^(TestMonitorEndToEnd|TestTraceAlarmCorrelation)$$' ./cmd/hvacsim
	$(GO) test -count=20 -run '^TestTraceMergeEndToEnd$$' ./internal/serve
	$(GO) test -count=20 -run '^TestRemoteTraceConcurrent$$' ./internal/artifact

# Native Go fuzz targets, 10s each (go test -fuzz takes one target per
# run). `go test ./...` already replays their checked-in seed
# corpora under testdata/fuzz; this target searches for new inputs.
# FuzzCompanionSpectralRadius: CompanionSpectralRadius, and the
# portable kernel where the host runs AVX2, must return the scalar
# oracle's bits and error class on the explicit companion, for any
# p x 2p top (p in 1..12) of arbitrary float64 bits.
# FuzzModelCodecDecode / FuzzFrameCodecDecode / FuzzDatasetCodecDecode:
# any bytes either fail to decode or decode to a value whose encoding
# is a fixed point (Encode -> Decode -> Encode gives the same bytes)
# and that fails to decode with a non-whitespace byte appended;
# nothing panics. A frame's or dataset's short cell block, trailing
# bytes or a shape whose channels x n x 8 overflows int is rejected
# before any cell is allocated.
# FuzzClusterCodecDecode / FuzzSelectionCodecDecode: the same for
# clusterings and selections, whose decoded values must also index
# safely: cluster members, per-cluster means and selected sensors.
# FuzzStageCodecDecode: the same fixed-point and trailing-byte property
# for the evaluation, control, fleet-building and fleet-report JSON
# codecs; the target's first argument picks the codec. Its inputs are
# whole JSON artifacts, which Go's default 60 s minimization of each
# new interesting input would shrink for most of the 10 s budget
# instead of searching, so its minimization is capped at 1 s.
# FuzzEncodeEnvelope: for any codec name, version, payload string and
# float, the artifact envelope written directly is byte for byte what
# json.Encoder writes for it, or both fail.
# FuzzLocalStoreTorn: after any truncation, overwrite or bit flip of a
# published local artifact file, Stat returns the original Info or
# misses, and Open plus ReadAll returns exactly the original payload or
# an error; never other bytes without one.
# FuzzHandlerPath: any path under /v1/artifacts/ that is not exactly 64
# lowercase hex digits gets 400 on GET, HEAD and PUT without reaching
# the backend; a valid key does reach it; nothing panics.
# FuzzParseTraceRef: an accepted X-Auditherm-Trace ref has a 1-64-byte
# printable-ASCII run id and re-parses from its wire form to itself.
# FuzzTraceEncode: for any span name, attribute, event and error
# strings the exported trace line is valid UTF-8 and valid JSON, and
# decodes to the strings encoding/json's own round trip gives.
# FuzzReadCSV: any bytes either fail dataset.ReadCSV or give a frame
# whose CSV is a fixed point (WriteCSV -> ReadCSV -> WriteCSV) and
# that FrameMatrices and GridModeWindows take without panicking.
# FuzzAuditoriumSubstep: for any valid auditorium config, elapsed time
# and inputs, the compiled stencil substep gives the per-cell oracle's
# cell and plenum temperatures bit for bit.
# FuzzSpecJSON: any JSON that decodes to a building.Spec either fails
# Validate or builds with New and takes one 10-minute Step without
# panicking, at finite temperatures.
# FuzzPMV: any comfort.Conditions that Validate accepts gives PMV the
# bits and error of the math.Pow reference it replaced.
# FuzzServeQuery: for any raw query, every serve endpoint's parser
# either errors or returns parameters inside their bounds (day counts,
# seeds, hours, a cluster count k within the sensor count, a positive
# horizon, finite floats), and never panics.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCompanionSpectralRadius$$' -fuzztime 10s ./internal/mat
	$(GO) test -run '^$$' -fuzz '^FuzzModelCodecDecode$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodecDecode$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzDatasetCodecDecode$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzClusterCodecDecode$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzSelectionCodecDecode$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzStageCodecDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeEnvelope$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzLocalStoreTorn$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzHandlerPath$$' -fuzztime 10s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceRef$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzTraceEncode$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzAuditoriumSubstep$$' -fuzztime 10s ./internal/building
	$(GO) test -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime 10s ./internal/building
	$(GO) test -run '^$$' -fuzz '^FuzzPMV$$' -fuzztime 10s ./internal/comfort
	$(GO) test -run '^$$' -fuzz '^FuzzServeQuery$$' -fuzztime 10s ./internal/serve

clean:
	$(GO) clean ./...
