package artifact

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"auditherm/internal/obs"
)

// Protocol headers for the content-addressed artifact endpoint.
const (
	// ContentHeader carries the SHA-256 of the artifact bytes: the
	// server sends it on GET/HEAD (the digest its store's Stat
	// reports) so the client can verify every read, and the client
	// sends it on PUT so the server can reject a corrupted upload.
	ContentHeader = "X-Auditherm-Content"
)

// artifactsPathPrefix is the endpoint the handler mounts at and the
// client requests against.
const artifactsPathPrefix = "/v1/artifacts/"

// Remote is the content-addressed HTTP backend: GET/PUT against
// another process's /v1/artifacts/{digest} endpoint (auditherm serve
// exposes one over its own store). Every read is SHA-256-verified
// against the content digest the server sends — keys and contents are
// both digests, so integrity checking costs one hash. Concurrent
// fetches of the same key are singleflight-deduped: one request goes
// to the wire, every waiter shares its (verified) bytes.
type Remote struct {
	base   string
	token  string
	client *http.Client

	fmu    sync.Mutex
	flight map[Digest]*fetchCall
}

type fetchCall struct {
	done      chan struct{}
	data      []byte
	info      Info
	serverRun string // X-Auditherm-Run from the serving daemon, if any
	err       error
}

// NewRemote builds the client for the artifact endpoint at base
// (scheme://host[:port], no path). token, when non-empty, is sent as a
// bearer Authorization header on every request.
func NewRemote(base, token string) (*Remote, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("artifact: remote url %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("artifact: remote url %q: want http:// or https://", base)
	}
	return &Remote{
		base:   strings.TrimSuffix(base, "/"),
		token:  token,
		client: &http.Client{Timeout: 60 * time.Second},
		flight: make(map[Digest]*fetchCall),
	}, nil
}

// Name implements Backend.
func (r *Remote) Name() string { return "remote=" + r.base }

// Close implements Backend.
func (r *Remote) Close() error {
	r.client.CloseIdleConnections()
	return nil
}

func (r *Remote) urlFor(key Digest) string {
	return r.base + artifactsPathPrefix + string(key)
}

func (r *Remote) newRequest(ctx context.Context, method string, key Digest, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.urlFor(key), body)
	if err != nil {
		return nil, fmt.Errorf("artifact: remote %s %s: %w", method, key.Short(), err)
	}
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	return req, nil
}

// Has implements Backend via a HEAD probe.
func (r *Remote) Has(ctx context.Context, key Digest) bool {
	_, ok, err := r.Stat(ctx, key)
	return err == nil && ok
}

// Stat implements Backend via HEAD: the server answers with the
// content digest and size headers, no body.
func (r *Remote) Stat(ctx context.Context, key Digest) (Info, bool, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, false, err
	}
	req, err := r.newRequest(ctx, http.MethodHead, key, nil)
	if err != nil {
		return Info{}, false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return Info{}, false, fmt.Errorf("artifact: remote stat %s: %w", key.Short(), err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		content := Digest(resp.Header.Get(ContentHeader))
		if err := ValidateKey(content); err != nil {
			return Info{}, false, fmt.Errorf("artifact: remote stat %s: bad %s header %q", key.Short(), ContentHeader, content)
		}
		remoteHitsTotal.Inc()
		return Info{Key: key, Content: content, Bytes: resp.ContentLength}, true, nil
	case http.StatusNotFound:
		remoteMissesTotal.Inc()
		return Info{}, false, nil
	default:
		return Info{}, false, fmt.Errorf("artifact: remote stat %s: %s", key.Short(), resp.Status)
	}
}

// Open implements Backend: the verified bytes stream from memory after
// fetch.
func (r *Remote) Open(ctx context.Context, key Digest) (io.ReadCloser, error) {
	data, _, err := r.Fetch(ctx, key)
	if err != nil {
		return nil, err
	}
	return readCloser{bytes.NewReader(data)}, nil
}

// Fetch GETs the artifact bytes, verifying their SHA-256 against the
// content digest the server sends; a flipped bit in transit fails the
// read instead of poisoning the caller's cache (one on the server's
// disk already fails the server's own trailer check, a 404). Concurrent fetches of one key share a single wire
// request. The returned slice is shared across waiters; do not mutate.
//
// Every caller gets its own "artifact/remote.get" client span —
// followers that join an in-flight request are marked coalesced=true
// — so merged traces attribute remote wait time to the stage that
// actually waited. The leader injects the X-Auditherm-Trace header,
// linking the daemon's handling to its span, and records the
// daemon's run ID (X-Auditherm-Run) as the server_run attribute.
func (r *Remote) Fetch(ctx context.Context, key Digest) ([]byte, Info, error) {
	if err := ValidateKey(key); err != nil {
		return nil, Info{}, err
	}
	sp := obs.ClientSpan(ctx, "artifact/remote.get")
	sp.SetAttr(obs.String("digest", key.Short()))
	defer sp.End()

	r.fmu.Lock()
	if c, ok := r.flight[key]; ok {
		r.fmu.Unlock()
		remoteCoalescedTotal.Inc()
		sp.SetAttr(obs.Bool("coalesced", true))
		select {
		case <-c.done:
			finishFetchSpan(sp, c)
			return c.data, c.info, c.err
		case <-ctx.Done():
			sp.SetError(ctx.Err())
			return nil, Info{}, ctx.Err()
		}
	}
	c := &fetchCall{done: make(chan struct{})}
	r.flight[key] = c
	r.fmu.Unlock()

	c.data, c.info, c.serverRun, c.err = r.fetch(ctx, sp, key)
	r.fmu.Lock()
	delete(r.flight, key)
	r.fmu.Unlock()
	close(c.done)
	finishFetchSpan(sp, c)
	return c.data, c.info, c.err
}

// finishFetchSpan stamps a completed (or joined) fetch onto the
// caller's client span.
func finishFetchSpan(sp *obs.Span, c *fetchCall) {
	if c.serverRun != "" {
		sp.SetAttr(obs.String("server_run", c.serverRun))
	}
	if c.err != nil {
		sp.SetError(c.err)
		return
	}
	sp.SetCount("bytes", int64(len(c.data)))
}

// fetch performs the wire GET under the leader's client span sp.
func (r *Remote) fetch(ctx context.Context, sp *obs.Span, key Digest) (data []byte, info Info, serverRun string, err error) {
	req, err := r.newRequest(ctx, http.MethodGet, key, nil)
	if err != nil {
		return nil, Info{}, "", err
	}
	obs.InjectTrace(req.Header, sp)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, Info{}, "", fmt.Errorf("artifact: remote get %s: %w", key.Short(), err)
	}
	defer resp.Body.Close()
	serverRun = resp.Header.Get(obs.RunHeader)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		remoteMissesTotal.Inc()
		io.Copy(io.Discard, resp.Body)
		return nil, Info{}, serverRun, &notFoundError{key: key, tier: "remote"}
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, Info{}, serverRun, fmt.Errorf("artifact: remote get %s: %s", key.Short(), resp.Status)
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, Info{}, serverRun, fmt.Errorf("artifact: remote get %s: reading body: %w", key.Short(), err)
	}
	want := Digest(resp.Header.Get(ContentHeader))
	if err := ValidateKey(want); err != nil {
		return nil, Info{}, serverRun, fmt.Errorf("artifact: remote get %s: bad %s header %q", key.Short(), ContentHeader, want)
	}
	if got := HashBytes(data); got != want {
		remoteVerifyFailuresTotal.Inc()
		return nil, Info{}, serverRun, fmt.Errorf("artifact: remote get %s: content digest mismatch: got %s, server sent %s (corrupt remote artifact or transport)",
			key.Short(), got.Short(), want.Short())
	}
	remoteHitsTotal.Inc()
	remoteFetchBytesTotal.Add(int64(len(data)))
	return data, Info{Key: key, Content: want, Bytes: int64(len(data))}, serverRun, nil
}

// Put implements Backend: the encoded bytes upload with their content
// digest so the server verifies the write end-to-end.
func (r *Remote) Put(ctx context.Context, key Digest, encode func(io.Writer) error) (Info, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, err
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return Info{}, err
	}
	return r.PutBytes(ctx, key, buf.Bytes())
}

// PutBytes uploads already-encoded artifact bytes.
func (r *Remote) PutBytes(ctx context.Context, key Digest, data []byte) (Info, error) {
	if err := ValidateKey(key); err != nil {
		return Info{}, err
	}
	sp := obs.ClientSpan(ctx, "artifact/remote.put")
	sp.SetAttr(obs.String("digest", key.Short()))
	sp.SetCount("bytes", int64(len(data)))
	defer sp.End()
	info := Info{Key: key, Content: HashBytes(data), Bytes: int64(len(data))}
	req, err := r.newRequest(ctx, http.MethodPut, key, bytes.NewReader(data))
	if err != nil {
		sp.SetError(err)
		return Info{}, err
	}
	req.Header.Set(ContentHeader, string(info.Content))
	req.ContentLength = int64(len(data))
	obs.InjectTrace(req.Header, sp)
	resp, err := r.client.Do(req)
	if err != nil {
		err = fmt.Errorf("artifact: remote put %s: %w", key.Short(), err)
		sp.SetError(err)
		return Info{}, err
	}
	if run := resp.Header.Get(obs.RunHeader); run != "" {
		sp.SetAttr(obs.String("server_run", run))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("artifact: remote put %s: %s", key.Short(), resp.Status)
		sp.SetError(err)
		return Info{}, err
	}
	remotePutBytesTotal.Add(int64(len(data)))
	return info, nil
}
