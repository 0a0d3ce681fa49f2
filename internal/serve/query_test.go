package serve

import (
	"io"
	"log/slog"
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/dataset"
)

// testParsers are the query parsers of the pipeline endpoints, by
// path, on a server whose only report is fig2 and whose dataset has
// the default auditorium's 27 sensors.
func testParsers() map[string]func(url.Values) (map[string]string, computeFn, error) {
	s := &Server{reportSet: map[string]bool{"fig2": true}, sensors: 27}
	return map[string]func(url.Values) (map[string]string, computeFn, error){
		"/v1/sysid":   s.parseSysid,
		"/v1/cluster": s.parseCluster,
		"/v1/select":  s.parseSelect,
		"/v1/control": s.parseControl,
		"/v1/report":  s.parseReport,
		"/v1/fleet":   s.parseFleet,
	}
}

// intBounds are the integer parameters' accepted ranges.
var intBounds = map[string][2]int{
	"days": {1, maxDays}, "control_days": {1, maxDays},
	"seeds": {1, maxSeeds}, "n": {1, maxFleetN},
	"on": {0, 24}, "off": {0, 24},
	"k": {0, 27},
}

// checkParams reports the first canonical parameter outside the bounds
// the parsers promise: intBounds, a positive horizon, and finite
// setpoint, flow and max_missing.
func checkParams(params map[string]string) (string, bool) {
	for key, v := range params {
		if b, ok := intBounds[key]; ok {
			if n, err := strconv.Atoi(v); err != nil || n < b[0] || n > b[1] {
				return key + "=" + v, false
			}
			continue
		}
		switch key {
		case "setpoint", "flow", "max_missing":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return key + "=" + v, false
			}
		case "horizon":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return key + "=" + v, false
			}
		}
	}
	return "", true
}

// goodQueries must parse: the paths perfbench's serve-mixed workload
// sends, and values at the bounds.
var goodQueries = []string{
	"/v1/sysid?order=1",
	"/v1/sysid?order=2",
	"/v1/sysid?horizon=3601s",
	"/v1/fleet?n=8&seed=126&days=4&control_days=1",
	"/v1/fleet?n=8&seed=126&days=4&control_days=1&setpoint=22.001",
	"/v1/control?days=1&seed=1000001",
	"/v1/cluster?metric=correlation&k=2&seed=1000",
	"/v1/select?seeds=1&metric=correlation&on=5&off=20&k=2",
	"/v1/select?seeds=40&metric=euclidean&on=7&off=22&k=4",
	"/v1/cluster?k=0",
	"/v1/cluster?k=27",
	"/v1/select?k=27",
	"/v1/report?id=fig2&control_days=98",
	"/v1/control?days=98&setpoint=1e308&flow=-0",
	"/v1/sysid?on=0&off=24&horizon=1ns&max_missing=-1e-300",
}

// badQueries must each fail with an error naming param.
var badQueries = []struct{ path, query, param string }{
	{"/v1/control", "days=100000000", "days"},
	{"/v1/control", "days=0", "days"},
	{"/v1/control", "setpoint=NaN", "setpoint"},
	{"/v1/control", "flow=Inf", "flow"},
	{"/v1/control", "flow=-Inf", "flow"},
	{"/v1/fleet", "days=100000&control_days=1", "days"},
	{"/v1/fleet", "control_days=100000", "control_days"},
	{"/v1/fleet", "setpoint=NaN", "setpoint"},
	{"/v1/sysid", "max_missing=NaN", "max_missing"},
	{"/v1/sysid", "horizon=-5h", "horizon"},
	{"/v1/sysid", "horizon=0s", "horizon"},
	{"/v1/sysid", "on=99&off=-3", "on"},
	{"/v1/sysid", "off=-3", "off"},
	{"/v1/cluster", "on=25", "on"},
	{"/v1/cluster", "k=100", "k"},
	{"/v1/cluster", "k=-3", "k"},
	{"/v1/select", "k=100", "k"},
	{"/v1/select", "k=-1", "k"},
	{"/v1/select", "seeds=100000000", "seeds"},
	{"/v1/select", "off=-1", "off"},
	{"/v1/report", "id=fig2&control_days=1000", "control_days"},
}

// TestQueryBounds: each out-of-range value is refused with an error
// that names its parameter, and the good queries still parse.
func TestQueryBounds(t *testing.T) {
	ps := testParsers()
	for _, tc := range badQueries {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = ps[tc.path](q)
		if err == nil {
			t.Errorf("%s?%s: accepted", tc.path, tc.query)
		} else if !strings.HasPrefix(err.Error(), "parameter "+tc.param+":") {
			t.Errorf("%s?%s: error %q does not name %s", tc.path, tc.query, err, tc.param)
		}
	}
	for _, raw := range goodQueries {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ps[u.Path](u.Query()); err != nil {
			t.Errorf("%s: %v", raw, err)
		}
	}
}

// TestClusterCountBoundFollowsDataset: New bounds k by the daemon
// dataset's own sensor count, so a daemon over the default office (11
// sensors) accepts k = 11 and refuses k = 12.
func TestClusterCountBoundFollowsDataset(t *testing.T) {
	spec, err := building.DefaultSpec(building.ArchetypeOffice)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig()
	cfg.Spec = &spec
	s, err := New(Config{Dataset: cfg}, slog.New(slog.NewTextHandler(io.Discard, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Sensors())
	if n != 11 {
		t.Fatalf("default office has %d sensors, want 11", n)
	}
	for _, parse := range []func(url.Values) (map[string]string, computeFn, error){s.parseCluster, s.parseSelect} {
		if _, _, err := parse(url.Values{"k": {strconv.Itoa(n)}}); err != nil {
			t.Errorf("k=%d for %d sensors: %v", n, n, err)
		}
		if _, _, err := parse(url.Values{"k": {strconv.Itoa(n + 1)}}); err == nil || !strings.HasPrefix(err.Error(), "parameter k:") {
			t.Errorf("k=%d for %d sensors: err = %v, want a parameter k error", n+1, n, err)
		}
	}
}

// FuzzServeQuery: for any raw query string, every endpoint's parser
// either returns an error or canonical parameters inside the bounds
// checkParams holds them to, and never panics. The good and bad
// queries above are its seed corpus.
func FuzzServeQuery(f *testing.F) {
	for _, raw := range goodQueries {
		u, err := url.Parse(raw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(u.RawQuery)
	}
	for _, tc := range badQueries {
		f.Add(tc.query)
	}
	ps := testParsers()
	f.Fuzz(func(t *testing.T, raw string) {
		// The handlers read r.URL.Query(), which drops malformed pairs
		// the same way.
		q, _ := url.ParseQuery(raw)
		for path, parse := range ps {
			params, compute, err := parse(q)
			if err != nil {
				continue
			}
			if compute == nil {
				t.Fatalf("%s?%s: no compute function", path, raw)
			}
			if bad, ok := checkParams(params); !ok {
				t.Fatalf("%s?%s: accepted %s", path, raw, bad)
			}
		}
	})
}
