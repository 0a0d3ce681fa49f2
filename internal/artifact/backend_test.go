package artifact

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"auditherm/internal/obs"
)

func TestValidateKey(t *testing.T) {
	good := HashBytes([]byte("anything"))
	if err := ValidateKey(good); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
	bad := []Digest{
		"",
		"abc",
		Digest(strings.Repeat("a", 63)),
		Digest(strings.Repeat("a", 65)),
		Digest(strings.ToUpper(string(good))),
		Digest(strings.Repeat("g", 64)),
		Digest("../" + strings.Repeat("a", 61)),
		Digest(strings.Repeat("a", 32) + "/" + strings.Repeat("a", 31)),
	}
	for _, k := range bad {
		if err := ValidateKey(k); err == nil {
			t.Errorf("malformed key %q accepted", k)
		}
	}
}

// TestStorePutDedupesPresentKey pins the content-addressed fast path:
// re-Putting a key whose artifact file already exists and checks out
// against its digest trailer skips the write (the dedupe counter
// moves) while returning the same Info the first Put did, and the
// on-disk file — payload and trailer — stays byte for byte untouched.
func TestStorePutDedupesPresentKey(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	key := HashBytes([]byte("dedupe-me"))
	payload := []byte("dedupe payload bytes")
	encode := func(w io.Writer) error { _, err := w.Write(payload); return err }
	first, err := st.Put(ctx, key, encode)
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.Path(key)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	base := obs.Default.CounterValue("auditherm_artifact_local_deduped_puts_total")
	second, err := st.Put(ctx, key, func(io.Writer) error {
		t.Error("dedupe path must not re-encode")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("deduped Put returned %+v, first Put %+v", second, first)
	}
	if got := obs.Default.CounterValue("auditherm_artifact_local_deduped_puts_total"); got != base+1 {
		t.Errorf("dedupe counter moved %d, want 1", got-base)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("deduped Put rewrote the artifact file:\n%q\nwas\n%q", after, before)
	}
	if want := int64(len(payload)) + trailerLen; int64(len(after)) != want {
		t.Errorf("artifact file holds %d bytes, want payload + trailer = %d", len(after), want)
	}
}

func TestStorePathRejectsMalformedKey(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The old store fell back to a "__"-prefixed flat name for short
	// keys; that silent path must now be an error end to end.
	for _, k := range []Digest{"short", "../../../../etc/passwd" + Digest(strings.Repeat("a", 41))} {
		if _, err := st.Path(k); err == nil {
			t.Errorf("Path(%q) built a path for a malformed key", k)
		}
		if _, err := st.Put(ctx, k, func(w io.Writer) error { return nil }); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", k)
		}
		if st.Has(ctx, k) {
			t.Errorf("Has(%q) true for a malformed key", k)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"123":    123,
		"1kb":    1e3,
		"2KB":    2e3,
		"1KiB":   1 << 10,
		"64MiB":  64 << 20,
		"2GiB":   2 << 30,
		"3gb":    3e9,
		"1TiB":   1 << 40,
		" 5 MB ": 5e6,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "xyz", "-1", "12qb", "kb"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}

func TestOpenSpec(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenSpec("mem:1MiB,local", SpecOptions{LocalRoot: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tiered, ok := b.(*Tiered)
	if !ok {
		t.Fatalf("spec with two tiers built %T", b)
	}
	if n := len(tiered.Tiers()); n != 2 {
		t.Fatalf("tier count %d, want 2", n)
	}
	if _, ok := tiered.Tiers()[0].(*Mem); !ok {
		t.Errorf("hot tier is %T, want *Mem", tiered.Tiers()[0])
	}

	single, err := OpenSpec("mem", SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, ok := single.(*Mem); !ok {
		t.Errorf("single-tier spec built %T, want bare *Mem", single)
	}

	for _, spec := range []string{
		"",                  // empty tier
		"mem,mem",           // duplicate
		"tape",              // unknown
		"local",             // no dir anywhere
		"remote",            // no URL
		"mem=stuff",         // mem takes no arg
		"mem:banana",        // bad size
		"remote=ftp://x:1/", // bad scheme
	} {
		if b, err := OpenSpec(spec, SpecOptions{}); err == nil {
			b.Close()
			t.Errorf("OpenSpec(%q) accepted", spec)
		}
	}
}

func TestMemLRU(t *testing.T) {
	m := NewMem(64)
	payload := func(i int) ([]byte, Digest) {
		data := bytes.Repeat([]byte{byte(i)}, 32)
		return data, HashBytes([]byte(fmt.Sprintf("key-%d", i)))
	}
	d0, k0 := payload(0)
	d1, k1 := payload(1)
	m.PutBytes(k0, d0, Info{Key: k0, Content: HashBytes(d0), Bytes: 32})
	m.PutBytes(k1, d1, Info{Key: k1, Content: HashBytes(d1), Bytes: 32})
	// Touch k0, then insert a third entry: k1 (now LRU) must go.
	if _, _, ok := m.GetBytes(k0); !ok {
		t.Fatal("k0 missing before eviction")
	}
	d2, k2 := payload(2)
	m.PutBytes(k2, d2, Info{Key: k2, Content: HashBytes(d2), Bytes: 32})
	if _, _, ok := m.GetBytes(k1); ok {
		t.Error("LRU entry k1 survived past the byte cap")
	}
	got, _, ok := m.GetBytes(k0)
	if !ok || !bytes.Equal(got, d0) {
		t.Error("recently-used k0 evicted or corrupted")
	}
	// An artifact larger than the whole cap is skipped, not stored.
	big := bytes.Repeat([]byte{9}, 128)
	kb := HashBytes([]byte("big"))
	m.PutBytes(kb, big, Info{Key: kb, Bytes: 128})
	if _, _, ok := m.GetBytes(kb); ok {
		t.Error("oversized artifact cached")
	}
}

func TestMemValueCache(t *testing.T) {
	m := NewMem(0)
	digest := HashBytes([]byte("content"))
	if _, ok := m.Value(digest); ok {
		t.Fatal("empty cache hit")
	}
	m.PutValue(digest, 42)
	v, ok := m.Value(digest)
	if !ok || v.(int) != 42 {
		t.Fatalf("value round trip: %v, %v", v, ok)
	}
}

func TestLocalEvictionHoldsBudget(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const size = 1024
	st, err := OpenLocal(dir, LocalOptions{Budget: 4 * size})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, size) }
	keys := make([]Digest, 8)
	for i := range keys {
		keys[i] = HashBytes([]byte(fmt.Sprintf("evict-key-%d", i)))
		if _, err := st.Put(ctx, keys[i], func(w io.Writer) error {
			_, err := w.Write(payload(i))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The store must have evicted down to the budget ...
	var total int64
	survivors := 0
	for i, k := range keys {
		rc, err := st.Open(ctx, k)
		if err != nil {
			if IsNotFound(err) {
				continue
			}
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		// ... and every surviving artifact must read back bit-identical.
		if !bytes.Equal(data, payload(i)) {
			t.Errorf("survivor %d corrupted by eviction", i)
		}
		total += int64(len(data))
		survivors++
	}
	if total > 4*size {
		t.Errorf("store holds %d bytes, budget is %d", total, 4*size)
	}
	if survivors == 0 {
		t.Error("eviction removed everything, including the most recent Put")
	}
	// The newest key is never its own Put's victim.
	if !st.Has(ctx, keys[len(keys)-1]) {
		t.Error("most recent Put evicted itself")
	}
}

func TestEvictionSafeAgainstConcurrentRead(t *testing.T) {
	ctx := context.Background()
	st, err := OpenLocal(t.TempDir(), LocalOptions{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := HashBytes([]byte("reader"))
	payload := bytes.Repeat([]byte{7}, 4096)
	if _, err := st.Put(ctx, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rc, err := st.Open(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Evict the artifact while the descriptor is open: POSIX keeps the
	// inode alive, so the in-flight read must still see every byte.
	path, _ := st.Path(key)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Error("read corrupted by concurrent eviction")
	}
	// The evicted key is a plain miss afterwards — recompute territory.
	if _, ok, err := st.Stat(ctx, key); err != nil || ok {
		t.Errorf("evicted key: ok=%v err=%v, want miss", ok, err)
	}
}

func TestKillMidPutResumeWithEviction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := OpenLocal(dir, LocalOptions{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	key := HashBytes([]byte("resume"))
	payload := bytes.Repeat([]byte{3}, 2048)
	if _, err := st.Put(ctx, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-Put leaves a stale temp file and no final artifact.
	orphan := filepath.Join(dir, tempPrefix+"killed")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * StaleTempAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	// Reopen with the budget: the index rebuilds from disk, the sweep
	// clears the orphan, and the completed artifact reads back intact.
	st2, err := OpenLocal(dir, LocalOptions{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	st2.waitSweep()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("stale temp from the killed Put survived reopen")
	}
	rc, err := st2.Open(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(data, payload) {
		t.Error("artifact corrupted across kill/reopen")
	}
	// The resumed run re-Puts the interrupted stage; eviction stays live.
	key2 := HashBytes([]byte("resume-2"))
	if _, err := st2.Put(ctx, key2, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredReadThroughAndPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	local, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem(1 << 20)
	tiered := NewTiered(mem, local)
	defer tiered.Close()

	key := HashBytes([]byte("promote-me"))
	payload := []byte("cold artifact body\n")
	// Seed only the cold tier, then read through the stack.
	if _, err := local.Put(ctx, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rc, err := tiered.Open(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(data, payload) {
		t.Fatalf("read %q, want %q", data, payload)
	}
	// The hit must have been promoted: destroy the local tier's files
	// and the hot tier alone must still serve the bytes — the
	// structural proof that warm Gets touch no filesystem.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, info, ok := mem.GetBytes(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("lower-tier hit was not promoted into the mem tier")
	}
	if info.Content != HashBytes(payload) {
		t.Errorf("promoted info content %s, want %s", info.Content, HashBytes(payload))
	}
	rc, err = tiered.Open(ctx, key)
	if err != nil {
		t.Fatalf("warm read after local destruction: %v", err)
	}
	data, _ = io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(data, payload) {
		t.Error("warm read differs after local destruction")
	}
}

func TestTieredWriteThrough(t *testing.T) {
	ctx := context.Background()
	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem(1 << 20)
	tiered := NewTiered(mem, local)
	defer tiered.Close()
	key := HashBytes([]byte("both-tiers"))
	payload := []byte("write-through body")
	info, err := tiered.Put(ctx, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Content != HashBytes(payload) {
		t.Errorf("put info content %s", info.Content)
	}
	if _, _, ok := mem.GetBytes(key); !ok {
		t.Error("write-through skipped the mem tier")
	}
	if !local.Has(ctx, key) {
		t.Error("write-through skipped the local tier")
	}
}

// startArtifactServer mounts the /v1/artifacts handler over a fresh
// local store and returns the test server plus the store (so tests can
// corrupt its files).
func startArtifactServer(t *testing.T, token string) (*httptest.Server, *Store, *Handler) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := NewHandler(st, token)
	mux := http.NewServeMux()
	mux.Handle(h.PathPrefix(), h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, st, h
}

func TestRemoteRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv, _, _ := startArtifactServer(t, "")
	r, err := NewRemote(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	key := HashBytes([]byte("remote-key"))
	payload := []byte("bytes over the wire\n")
	info, err := r.PutBytes(ctx, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Content != HashBytes(payload) {
		t.Errorf("put content %s", info.Content)
	}
	if !r.Has(ctx, key) {
		t.Error("Has false after Put")
	}
	got, ok, err := r.Stat(ctx, key)
	if err != nil || !ok || got.Content != info.Content || got.Bytes != int64(len(payload)) {
		t.Errorf("Stat %+v ok=%v err=%v", got, ok, err)
	}
	data, _, err := r.Fetch(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Errorf("fetched %q, want %q", data, payload)
	}
	if _, ok, err := r.Stat(ctx, HashBytes([]byte("absent"))); err != nil || ok {
		t.Errorf("absent key: ok=%v err=%v", ok, err)
	}
	if _, _, err := r.Fetch(ctx, HashBytes([]byte("absent"))); !IsNotFound(err) {
		t.Errorf("absent fetch error %v, want not-found", err)
	}
}

// TestRemoteDetectsCorruption covers both places a damaged remote
// artifact is caught. A byte flipped on the server's disk fails the
// server's own trailer check: the server drops the file and answers
// 404. A byte flipped in flight fails the client's digest check.
func TestRemoteDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	payload := bytes.Repeat([]byte("abcd"), 256)

	t.Run("server disk", func(t *testing.T) {
		srv, st, _ := startArtifactServer(t, "")
		r, err := NewRemote(srv.URL, "")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		key := HashBytes([]byte("to-corrupt"))
		if _, err := r.PutBytes(ctx, key, payload); err != nil {
			t.Fatal(err)
		}
		// Flip one payload byte on the server's disk behind its back.
		path, err := st.Path(key)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(payload)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		torn := obs.Default.CounterValue("auditherm_artifact_local_torn_total")
		if _, _, err := r.Fetch(ctx, key); !IsNotFound(err) {
			t.Fatalf("fetch of an artifact damaged on the server returned %v, want not-found", err)
		}
		if got := obs.Default.CounterValue("auditherm_artifact_local_torn_total"); got != torn+1 {
			t.Errorf("torn counter moved %d, want 1", got-torn)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("server kept the torn artifact file (err=%v)", err)
		}
	})

	t.Run("in transit", func(t *testing.T) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		h := NewHandler(st, "")
		// Flip one byte of every GET body on its way to the client.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > 0 {
				body[len(body)/2] ^= 0x01
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		}))
		defer srv.Close()
		r, err := NewRemote(srv.URL, "")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		key := HashBytes([]byte("corrupt-in-flight"))
		if _, err := r.PutBytes(ctx, key, payload); err != nil {
			t.Fatal(err)
		}
		before := obs.Default.CounterValue("auditherm_artifact_remote_verify_failures_total")
		if _, _, err := r.Fetch(ctx, key); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("fetch corrupted in flight returned %v, want digest mismatch", err)
		}
		if after := obs.Default.CounterValue("auditherm_artifact_remote_verify_failures_total"); after != before+1 {
			t.Errorf("verify-failure counter %d, want %d", after, before+1)
		}
		// The server's copy is intact: the damage was the wire's.
		if _, ok, err := st.Stat(ctx, key); err != nil || !ok {
			t.Errorf("server artifact after a corrupted transfer: ok=%v err=%v", ok, err)
		}
	})
}

func TestRemotePutRejectsCorruptedUpload(t *testing.T) {
	srv, _, _ := startArtifactServer(t, "")
	key := HashBytes([]byte("upload"))
	req, err := http.NewRequest(http.MethodPut, srv.URL+artifactsPathPrefix+string(key),
		strings.NewReader("actual body"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ContentHeader, string(HashBytes([]byte("different body"))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched upload got %s, want 400", resp.Status)
	}
}

func TestHandlerRejectsMalformedDigests(t *testing.T) {
	_, st, h := startArtifactServer(t, "")
	for _, path := range []string{
		artifactsPathPrefix + "short",
		artifactsPathPrefix + "../../../etc/passwd",
		artifactsPathPrefix + "..%2F..%2Fetc%2Fpasswd",
		artifactsPathPrefix + strings.ToUpper(string(HashBytes([]byte("x")))),
		artifactsPathPrefix,
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s got %d, want 400", path, rec.Code)
		}
	}
	_ = st
}

// countingBackend is a Backend that counts its calls and stores
// nothing: Stat and Open miss, Put discards what it encodes.
type countingBackend struct{ calls int }

func (b *countingBackend) Name() string { return "counting" }
func (b *countingBackend) Close() error { return nil }
func (b *countingBackend) Has(context.Context, Digest) bool {
	b.calls++
	return false
}
func (b *countingBackend) Stat(context.Context, Digest) (Info, bool, error) {
	b.calls++
	return Info{}, false, nil
}
func (b *countingBackend) Open(_ context.Context, key Digest) (io.ReadCloser, error) {
	b.calls++
	return nil, &notFoundError{key: key, tier: "counting"}
}
func (b *countingBackend) Put(_ context.Context, key Digest, encode func(io.Writer) error) (Info, error) {
	b.calls++
	return Info{Key: key}, encode(io.Discard)
}

// FuzzHandlerPath: for any path under /v1/artifacts/, GET, HEAD and
// PUT either reach the backend with a valid key, or — for anything but
// exactly 64 lowercase hex digits — get 400 without touching it.
// Nothing panics. The seed corpus holds a valid key, the same key in
// uppercase, 63 and 65 digits, "..", "%2e%2e", a nested slash and an
// empty key.
func FuzzHandlerPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string) {
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut} {
			b := &countingBackend{}
			h := NewHandler(b, "")
			req := &http.Request{
				Method: method,
				URL:    &url.URL{Path: artifactsPathPrefix + key},
				Header: http.Header{},
				Body:   io.NopCloser(strings.NewReader("body")),
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if ValidateKey(Digest(key)) != nil {
				if rec.Code != http.StatusBadRequest || b.calls != 0 {
					t.Fatalf("%s %q: status %d after %d backend calls, want 400 and none", method, key, rec.Code, b.calls)
				}
				continue
			}
			if rec.Code == http.StatusBadRequest || b.calls == 0 {
				t.Fatalf("%s valid key %q: status %d after %d backend calls", method, key, rec.Code, b.calls)
			}
		}
	})
}

func TestHandlerBearerAuth(t *testing.T) {
	srv, _, _ := startArtifactServer(t, "s3kr1t")
	ctx := context.Background()
	key := HashBytes([]byte("authed"))
	payload := []byte("guarded artifact")

	// No token: 401 with a challenge.
	resp, err := http.Get(srv.URL + artifactsPathPrefix + string(key))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated GET got %s, want 401", resp.Status)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 missing WWW-Authenticate challenge")
	}

	wrong, err := NewRemote(srv.URL, "wrong")
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := wrong.PutBytes(ctx, key, payload); err == nil {
		t.Error("wrong token accepted on PUT")
	}

	right, err := NewRemote(srv.URL, "s3kr1t")
	if err != nil {
		t.Fatal(err)
	}
	defer right.Close()
	if _, err := right.PutBytes(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	data, _, err := right.Fetch(ctx, key)
	if err != nil || !bytes.Equal(data, payload) {
		t.Errorf("authed fetch: %q, %v", data, err)
	}
}

func TestRemoteSingleflight(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := NewHandler(st, "")
	var gets sync.Map
	var hold sync.WaitGroup
	hold.Add(1)
	mux := http.NewServeMux()
	mux.Handle(h.PathPrefix(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			// Park the first wire GET until every client goroutine has
			// issued its Fetch, forcing them to coalesce.
			if _, loaded := gets.LoadOrStore("first", true); !loaded {
				hold.Wait()
			}
			gets.Store(r.URL.Path+obs.NewRunID(), true)
		}
		h.ServeHTTP(w, r)
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	r, err := NewRemote(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	key := HashBytes([]byte("flight"))
	payload := []byte("deduped")
	if _, err := r.PutBytes(ctx, key, payload); err != nil {
		t.Fatal(err)
	}

	before := obs.Default.CounterValue("auditherm_artifact_remote_coalesced_total")
	const waiters = 4
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := r.Fetch(ctx, key)
			if err == nil && !bytes.Equal(data, payload) {
				err = fmt.Errorf("waiter %d read %q", i, data)
			}
			errs[i] = err
		}(i)
	}
	// Give the waiters time to pile onto the in-flight call, then let
	// the parked leader proceed.
	time.Sleep(50 * time.Millisecond)
	hold.Done()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if after := obs.Default.CounterValue("auditherm_artifact_remote_coalesced_total"); after == before {
		t.Error("no fetch coalesced despite concurrent identical requests")
	}
}

// TestBackendChurn is the -race suite: every backend shape under
// concurrent Put/Get/evict of overlapping keys, with byte-identity
// asserted on every successful Get. Misses are legal (eviction), torn
// or foreign bytes never are.
func TestBackendChurn(t *testing.T) {
	const (
		workers  = 8
		ops      = 60
		keyspace = 16
		size     = 512
	)
	payload := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i + 1)}, size)
		copy(b, fmt.Sprintf("payload-%02d", i))
		return b
	}
	keys := make([]Digest, keyspace)
	contents := make([]Digest, keyspace)
	for i := range keys {
		keys[i] = HashBytes([]byte(fmt.Sprintf("churn-%d", i)))
		contents[i] = HashBytes(payload(i))
	}

	churn := func(t *testing.T, b Backend) {
		t.Helper()
		ctx := context.Background()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < ops; op++ {
					i := rng.Intn(keyspace)
					if rng.Intn(2) == 0 {
						if _, err := b.Put(ctx, keys[i], func(w io.Writer) error {
							_, err := w.Write(payload(i))
							return err
						}); err != nil {
							t.Errorf("put %d: %v", i, err)
							return
						}
						continue
					}
					rc, err := b.Open(ctx, keys[i])
					if err != nil {
						if IsNotFound(err) {
							continue // evicted or not yet written
						}
						t.Errorf("open %d: %v", i, err)
						return
					}
					data, err := io.ReadAll(rc)
					rc.Close()
					if err != nil {
						t.Errorf("read %d: %v", i, err)
						return
					}
					if HashBytes(data) != contents[i] {
						t.Errorf("key %d returned foreign or torn bytes (%d bytes)", i, len(data))
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
	}

	t.Run("mem", func(t *testing.T) {
		// Cap below the keyspace footprint so eviction churns.
		churn(t, NewMem(int64(keyspace/2*size)))
	})
	t.Run("local-evicting", func(t *testing.T) {
		st, err := OpenLocal(t.TempDir(), LocalOptions{Budget: int64(keyspace / 2 * size)})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		churn(t, st)
	})
	t.Run("remote", func(t *testing.T) {
		srv, _, _ := startArtifactServer(t, "tok")
		r, err := NewRemote(srv.URL, "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		churn(t, r)
	})
	t.Run("tiered", func(t *testing.T) {
		srv, _, _ := startArtifactServer(t, "")
		r, err := NewRemote(srv.URL, "")
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenLocal(t.TempDir(), LocalOptions{Budget: int64(keyspace / 2 * size)})
		if err != nil {
			t.Fatal(err)
		}
		tiered := NewTiered(NewMem(int64(keyspace/4*size)), st, r)
		defer tiered.Close()
		churn(t, tiered)
	})
}
