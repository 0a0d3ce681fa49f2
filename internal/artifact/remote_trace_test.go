package artifact

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"auditherm/internal/obs"
	"auditherm/internal/par"
	"auditherm/internal/traceview"
)

// startTracingArtifactServer mounts the /v1/artifacts handler behind a
// wrapper that records every received X-Auditherm-Trace header and
// stamps a fixed X-Auditherm-Run on responses, mimicking the serve
// daemon's per-request run IDs.
func startTracingArtifactServer(t *testing.T, serverRun string) (*httptest.Server, *sync.Map) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := NewHandler(st, "")
	var seen sync.Map // method+path -> trace header value
	mux := http.NewServeMux()
	mux.Handle(h.PathPrefix(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Method+" "+r.URL.Path, r.Header.Get(obs.TraceHeader))
		w.Header().Set(obs.RunHeader, serverRun)
		h.ServeHTTP(w, r)
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &seen
}

// TestRemoteTracePropagation: GET and PUT carry the caller's span in
// X-Auditherm-Trace, the client span records the daemon's run ID, and
// a caller with no trace context sends no header at all.
func TestRemoteTracePropagation(t *testing.T) {
	ctx := context.Background()
	srv, seen := startTracingArtifactServer(t, "daemonrun0000001")
	r, err := NewRemote(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var buf bytes.Buffer
	tf := obs.NewTraceWriter(&buf, "clientrun0000001", "test")
	root := obs.ClientSpan(ctx, "test/root")
	root.SetRunID("clientrun0000001")
	root.SetSink(tf)
	sctx := obs.ContextWithSpan(ctx, root)

	key := HashBytes([]byte("traced"))
	payload := []byte("traced artifact bytes")
	if _, err := r.PutBytes(sctx, key, payload); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r.Fetch(sctx, key); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("fetch: %q, %v", data, err)
	}
	root.End()

	// Both wire requests must have carried a parseable ref naming the
	// client run.
	path := artifactsPathPrefix + string(key)
	for _, m := range []string{http.MethodPut, http.MethodGet} {
		v, ok := seen.Load(m + " " + path)
		if !ok {
			t.Fatalf("server never saw %s %s", m, path)
		}
		ref, err := obs.ParseTraceRef(v.(string))
		if err != nil {
			t.Fatalf("%s header %q: %v", m, v, err)
		}
		if ref.RunID != "clientrun0000001" {
			t.Errorf("%s carried run %q, want clientrun0000001", m, ref.RunID)
		}
	}

	// The client spans recorded the server's run ID.
	kids := exportedChildren(t, tf, &buf, root)
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want put+get", len(kids))
	}
	for _, sp := range kids {
		if sp.Attrs["server_run"] != "daemonrun0000001" {
			t.Errorf("span %s missing server_run attr: %v", sp.Name, sp.Attrs)
		}
	}

	// No span in context -> no header on the wire.
	key2 := HashBytes([]byte("untraced"))
	if _, err := r.PutBytes(ctx, key2, payload); err != nil {
		t.Fatal(err)
	}
	if v, ok := seen.Load(http.MethodPut + " " + artifactsPathPrefix + string(key2)); !ok || v.(string) != "" {
		t.Errorf("untraced put sent trace header %q", v)
	}
}

// TestRemoteTraceConcurrent drives traced fetches of overlapping keys
// from 8 par workers — the race-gate coverage for the propagation
// paths (memoized wire refs, singleflight follower spans, server-run
// stamping all mutate shared state under contention).
func TestRemoteTraceConcurrent(t *testing.T) {
	ctx := context.Background()
	srv, _ := startTracingArtifactServer(t, "daemonrun0000002")
	r, err := NewRemote(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const keyspace = 4
	keys := make([]Digest, keyspace)
	payloads := make([][]byte, keyspace)
	for i := range keys {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 256)
		keys[i] = HashBytes([]byte(fmt.Sprintf("conc-%d", i)))
		if _, err := r.PutBytes(ctx, keys[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	tf := obs.NewTraceWriter(&buf, "clientrun0000002", "test")
	root := obs.ClientSpan(ctx, "test/concurrent")
	root.SetRunID("clientrun0000002")
	root.SetSink(tf)
	sctx := obs.ContextWithSpan(ctx, root)

	const ops = 64
	err = par.ForEach(sctx, 8, ops, func(i int) error {
		k := i % keyspace
		data, _, err := r.Fetch(sctx, keys[k])
		if err != nil {
			return err
		}
		if !bytes.Equal(data, payloads[k]) {
			return fmt.Errorf("op %d: wrong bytes for key %d", i, k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	// Every fetch produced a client span under the root, each
	// resolving to the shared payload size.
	var gets int
	for _, sp := range exportedChildren(t, tf, &buf, root) {
		if sp.Name != "artifact/remote.get" {
			continue
		}
		gets++
		if n := sp.Counts["bytes"]; n != 256 {
			t.Fatalf("get span bytes=%d, want 256 (attrs %v)", n, sp.Attrs)
		}
	}
	if gets != ops {
		t.Fatalf("recorded %d get spans, want %d", gets, ops)
	}
}

// exportedChildren flushes tf, reads back what it wrote to buf and
// returns root's children as exported.
func exportedChildren(t *testing.T, tf *obs.TraceFile, buf *bytes.Buffer, root *obs.Span) []*traceview.Span {
	t.Helper()
	if err := tf.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := traceview.ReadTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Find(root.IDNum())
	if sp == nil {
		t.Fatalf("root span %s not exported", root.ID())
	}
	return sp.Children
}
