package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/pipeline"
	"auditherm/internal/serve"
)

// serveSetupReps is how many daemons a serve-mixed run warms, each
// right after a calibration burst; setup_s is the median at the
// reference speed and the last daemon takes the load.
const serveSetupReps = 5

// serveDataset is the daemon's building: two weeks of the auditorium at
// a 2 min step with two short backend outages, shaped like benchserve's.
// The run seed draws its noise seed (sensor calibration and noise,
// outage plan) from serveDatasetSeeds.
func serveDataset(seed int64) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	cfg.Seed = pick(serveDatasetSeeds, seed)
	return cfg
}

// fleetPath is the daemon's fleet request; a non-empty setpoint makes
// it a fleet edit, which recomputes only the control stages. Its plan is
// fleet-cold's default one whatever the run seed: warming eight cold
// members is most of a daemon's set-up, and with the plan following the
// seed a run's set-up median ranged from 2.1 to 5.2 s.
func fleetPath(setpoint string) string {
	p := fmt.Sprintf("/v1/fleet?n=8&seed=%d&days=4&control_days=1", planSeeds[0])
	if setpoint != "" {
		p += "&setpoint=" + setpoint
	}
	return p
}

// hotPaths are the keys warmed during set-up and repeated under load,
// so they are served from the response LRU.
func hotPaths() []string {
	return []string{"/v1/sysid?order=1", "/v1/sysid?order=2", fleetPath("")}
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	dir    string
	client *http.Client
	// hot maps each warmed path to the SHA-256 of its body.
	hot map[string][32]byte
}

// startDaemon builds a daemon over a fresh store, starts it on
// loopback and warms the hot keys.
func startDaemon(seed int64) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Dataset:       serveDataset(seed),
		CacheDir:      dir,
		Workers:       workers,
		ResponseCache: 256,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	mux := http.NewServeMux()
	srv.MountMux(mux)
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: mux},
		done:   make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}, Timeout: time.Minute},
		hot:    map[string][32]byte{},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	for _, p := range hotPaths() {
		status, body, err := d.get(p)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm %s: status %d: %s", p, status, body)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		d.hot[p] = sha256.Sum256(body)
	}
	return d, nil
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stop drains and shuts the daemon down, waits for its serving
// goroutine and removes its store.
func (d *daemon) stop() {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "serve-mixed: shutdown:", err)
	}
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve-mixed: serve:", err)
	}
	if err := d.srv.Wait(30 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "serve-mixed:", err)
	}
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// The request mix follows the repository's recorded serve load,
// benchserve: its 0.90 warm hit-rate gate and its eight-endpoint key
// space. Each 80-request block holds 72 repeats of warmed keys and 8
// fresh keys weighted like benchserve's endpoints: 2 sysid, 2 cluster,
// 1 select, 2 control, and 1 fleet edit standing in for benchserve's
// one report (both aggregate many stored stages).
var missMix = []struct {
	class string
	n     int
}{{"sysid", 2}, {"cluster", 2}, {"select", 1}, {"control", 2}, {"fleet_edit", 1}}

const hitsPerBlock = 72

// missClasses lists the fresh-key request classes.
var missClasses = func() []string {
	var out []string
	for _, m := range missMix {
		out = append(out, m.class)
	}
	return out
}()

// freshKeys numbers each class's fresh keys; both clients share it, so
// every fresh key of a run is distinct.
type freshKeys map[string]*atomic.Int64

func newFreshKeys() freshKeys {
	f := freshKeys{}
	for _, c := range missClasses {
		f[c] = new(atomic.Int64)
	}
	return f
}

// requestGen yields one client's seeded request sequence.
type requestGen struct {
	seed  int64
	rng   *rand.Rand
	fresh freshKeys
	block []string
}

type request struct{ class, path string }

func (g *requestGen) next() request {
	if len(g.block) == 0 {
		for i := 0; i < hitsPerBlock; i++ {
			g.block = append(g.block, "hit")
		}
		for _, m := range missMix {
			for i := 0; i < m.n; i++ {
				g.block = append(g.block, m.class)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	if class == "hit" {
		hot := hotPaths()
		return request{class, hot[g.rng.Intn(len(hot))]}
	}
	i := g.fresh[class].Add(1) - 1
	metric := [2]string{"correlation", "euclidean"}
	var path string
	switch class {
	case "control":
		path = fmt.Sprintf("/v1/control?days=1&seed=%d", g.seed*1_000_000+i)
	case "cluster":
		path = fmt.Sprintf("/v1/cluster?metric=%s&k=2&seed=%d", metric[i%2], 1000+i)
	case "select":
		// The select handler takes no seed, so its key is unique only for
		// the first 2160 select requests of a run; a run issues a few
		// hundred. Draws cycle over 1..40 fastest so the per-request cost
		// stays level; the metric, the on/off hours and k vary slower.
		path = fmt.Sprintf("/v1/select?seeds=%d&metric=%s&on=%d&off=%d&k=%d",
			1+i%40, metric[(i/40)%2], 5+(i/80)%3, 20+(i/240)%3, 2+(i/720)%3)
	case "sysid":
		path = fmt.Sprintf("/v1/sysid?horizon=%ds", 3600+i)
	case "fleet_edit":
		path = fleetPath(fmt.Sprintf("%.3f", 22+0.001*float64(i+1)))
	}
	return request{class, path}
}

// sample is one completed request: its class and latency.
type sample struct {
	class string
	d     time.Duration
}

// window is how long each load segment of a serve-mixed run lasts; the
// metrics are medians over segments, so a transient stall on a shared
// host moves one segment rather than the whole figure.
const window = 2 * time.Second

// newGens returns one seeded request generator per client.
func newGens(seed int64) []*requestGen {
	fresh := newFreshKeys()
	gens := make([]*requestGen, workers)
	for c := range gens {
		gens[c] = &requestGen{seed: seed, rng: rand.New(rand.NewSource(seed*1000 + int64(c))), fresh: fresh}
	}
	return gens
}

// load runs a closed loop of one client per generator for seconds and
// returns every request's latency, the wall time and the failure count.
// With a tracer, each client is a root span and each request a child
// span named after its class.
func (d *daemon) load(gens []*requestGen, seconds float64, t *tracer) ([]sample, time.Duration, int) {
	var (
		mu      sync.Mutex
		samples []sample
		failed  int
		wg      sync.WaitGroup
	)
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	t0 := time.Now()
	for c, gen := range gens {
		wg.Add(1)
		go func(c int, gen *requestGen) {
			defer wg.Done()
			ctx, root := t.start(context.Background(), fmt.Sprintf("client/%d", c))
			defer root.end()
			for time.Now().Before(end) {
				r := gen.next()
				name := "serve.hit"
				if r.class != "hit" {
					name = "serve.miss." + r.class
				}
				_, sp := t.start(ctx, name)
				start := time.Now()
				status, body, err := d.get(r.path)
				dur := time.Since(start)
				sp.end()
				ok := err == nil && status == http.StatusOK
				if ok && r.class == "hit" && sha256.Sum256(body) != d.hot[r.path] {
					ok = false
					err = fmt.Errorf("body differs from the warm response")
				}
				mu.Lock()
				if ok {
					samples = append(samples, sample{r.class, dur})
				} else {
					failed++
					fmt.Fprintf(os.Stderr, "serve-mixed: %s: status %d, err %v\n", r.path, status, err)
				}
				mu.Unlock()
			}
		}(c, gen)
	}
	wg.Wait()
	return samples, time.Since(t0), failed
}

func serveMixed(seed int64, seconds float64, trace bool) (outcome, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		burst := host.burst()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(seed); err != nil {
			return outcome{}, err
		}
		setups = append(setups, toRef(time.Since(t0).Seconds(), burst))
	}
	defer d.stop()
	rmse, err := d.modelRMSE()
	if err != nil {
		return outcome{}, err
	}
	gens := newGens(seed)
	if trace {
		return d.traced(gens, seconds)
	}
	var out outcome
	var rates, p50, p99 []float64
	err = untilDeadline(seconds, func() error {
		samples, wall, failed := d.load(gens, window.Seconds(), nil)
		out.attempted += len(samples) + failed
		out.failed += failed
		if len(samples) == 0 {
			return nil
		}
		lat := make([]float64, len(samples))
		for i, s := range samples {
			lat[i] = ms(s.d)
		}
		rates = append(rates, float64(len(samples))/wall.Seconds())
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		return nil
	})
	if err != nil {
		return outcome{}, err
	}
	if len(rates) == 0 {
		return outcome{}, fmt.Errorf("no request succeeded")
	}
	out.values = map[string]float64{
		"setup_s":             median(setups),
		"throughput_per_s":    median(rates),
		"latency_p50_ms":      median(p50),
		"latency_tail_ms":     median(p99),
		"model_rmse_p90_degc": rmse,
	}
	return out, nil
}

// modelRMSE is the 90th-percentile per-sensor free-run RMS of the
// daemon's second-order model, read from its warmed /v1/sysid response.
func (d *daemon) modelRMSE() (float64, error) {
	status, body, err := d.get("/v1/sysid?order=2")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("sysid: status %d", status)
	}
	var ev pipeline.EvalArtifact
	if err := json.Unmarshal(body, &ev); err != nil {
		return 0, err
	}
	return ev.RMSPercentile(90)
}

// traced is the serve-mixed traced run: half the time untraced, then
// half traced, timing each request class at the client and reading the
// daemon's counters over the traced half. It prints each class's share
// of the summed request time, which says what the mix spends the
// daemon on.
func (d *daemon) traced(gens []*requestGen, seconds float64) (outcome, error) {
	v := map[string]float64{}
	offSamples, offWall, offFailed := d.load(gens, seconds/2, nil)
	t := newTracer(obs.NewRunID())
	before := snapCounters()
	onSamples, onWall, onFailed := d.load(gens, seconds/2, t)
	after := snapCounters()
	counterLayers(v, before, after)
	engineLayers(v, before, after, onWall)
	v["artifact.decode_s"] = after.sumSince(before, "pipeline_decode_seconds")
	v["serve.response_hit_ratio"] = ratio(after.since(before, "serve_response_cache_hits_total"),
		after.since(before, "serve_response_cache_hits_total")+after.since(before, "serve_response_cache_misses_total"))
	v["serve.coalesced"] = after.since(before, "serve_coalesced_total")
	byClass := map[string][]float64{}
	total := 0.0
	for _, s := range onSamples {
		byClass[s.class] = append(byClass[s.class], ms(s.d))
		total += ms(s.d)
	}
	if len(byClass["hit"]) > 0 {
		v["serve.hit_latency_p50_ms"] = percentile(byClass["hit"], 50)
	}
	for _, c := range missClasses {
		if len(byClass[c]) > 0 {
			v["serve.miss_latency_p50_ms."+c] = percentile(byClass[c], 50)
		}
	}
	for _, c := range append([]string{"hit"}, missClasses...) {
		fmt.Fprintf(os.Stderr, "serve-mixed: %-10s %5d requests, %5.1f%% of request time\n", c, len(byClass[c]), 100*ratio(sum(byClass[c]), total))
	}
	if err := spanLayers(v, t, fmt.Sprintf("serve-mixed-%d", gens[0].seed), "client"); err != nil {
		return outcome{}, err
	}
	offRate := float64(len(offSamples)) / offWall.Seconds()
	onRate := float64(len(onSamples)) / onWall.Seconds()
	v["trace_overhead_frac"] = ratio(offRate, onRate) - 1
	failed := offFailed + onFailed
	return outcome{attempted: len(offSamples) + len(onSamples) + failed, failed: failed, values: v}, nil
}
