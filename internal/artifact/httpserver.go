package artifact

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Handler serves the content-addressed /v1/artifacts/{digest} protocol
// over a Backend, turning any process that mounts it (auditherm serve
// does) into a shared warm cache for a fleet of workers:
//
//	GET    /v1/artifacts/{digest}   artifact bytes + X-Auditherm-Content
//	HEAD   /v1/artifacts/{digest}   headers only (Stat)
//	PUT    /v1/artifacts/{digest}   store bytes (verified against
//	                                X-Auditherm-Content when sent)
//
// A malformed digest — wrong length, non-hex, any path-traversal
// attempt — is rejected with 400 before the store is touched. With a
// token configured, requests must carry "Authorization: Bearer
// <token>" or get 401; comparison is constant-time.
//
// GET and HEAD respond with the content digest the backend's Stat
// reports. The local store checks a file against its digest trailer,
// so an artifact damaged on the server's disk is a 404; the client
// checks the bytes it receives against the digest, so damage in
// transit fails its read.
type Handler struct {
	backend Backend
	token   string
}

// NewHandler builds the artifact endpoint over backend. token == ""
// disables auth (loopback development); any other value is required as
// a bearer token.
func NewHandler(backend Backend, token string) *Handler {
	return &Handler{backend: backend, token: token}
}

// PathPrefix is the mux pattern the handler expects to be mounted at.
func (h *Handler) PathPrefix() string { return artifactsPathPrefix }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.authorized(r) {
		artifactAuthFailuresTotal.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="auditherm artifacts"`)
		httpJSONError(w, http.StatusUnauthorized, "missing or invalid bearer token")
		return
	}
	key := Digest(strings.TrimPrefix(r.URL.Path, artifactsPathPrefix))
	if err := ValidateKey(key); err != nil {
		// Covers truncated keys, uppercase hex and every path-traversal
		// shape ("..", "%2e%2e", nested slashes): none are 64 hex chars.
		httpJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	artifactRequestsTotal.Inc()
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h.get(w, r, key)
	case http.MethodPut:
		h.put(w, r, key)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		httpJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

func (h *Handler) authorized(r *http.Request) bool {
	if h.token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(strings.TrimPrefix(auth, prefix)), []byte(h.token)) == 1
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, key Digest) {
	info, ok, err := h.backend.Stat(r.Context(), key)
	if err != nil {
		httpJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		httpJSONError(w, http.StatusNotFound, fmt.Sprintf("artifact %s not found", key.Short()))
		return
	}
	w.Header().Set(ContentHeader, string(info.Content))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	rc, err := h.backend.Open(r.Context(), key)
	if err != nil {
		if IsNotFound(err) { // evicted between stat and open
			httpJSONError(w, http.StatusNotFound, fmt.Sprintf("artifact %s not found", key.Short()))
			return
		}
		httpJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer rc.Close()
	w.WriteHeader(http.StatusOK)
	n, _ := io.Copy(w, rc)
	artifactServedBytesTotal.Add(n)
}

func (h *Handler) put(w http.ResponseWriter, r *http.Request, key Digest) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		httpJSONError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	content := HashBytes(data)
	if want := Digest(r.Header.Get(ContentHeader)); want != "" && want != content {
		artifactRejectedPutsTotal.Inc()
		httpJSONError(w, http.StatusBadRequest, fmt.Sprintf(
			"content digest mismatch: body hashes to %s, %s says %s (corrupted upload)",
			content.Short(), ContentHeader, want.Short()))
		return
	}
	info, err := h.backend.Put(r.Context(), key, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		httpJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	artifactReceivedBytesTotal.Add(info.Bytes)
	w.Header().Set(ContentHeader, string(info.Content))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusCreated)
	resp, _ := json.Marshal(map[string]any{
		"key":     string(info.Key),
		"content": string(info.Content),
		"bytes":   info.Bytes,
	})
	_, _ = w.Write(append(resp, '\n'))
}

// httpJSONError writes a JSON error payload (the same shape the serve
// daemon uses).
func httpJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	data, _ := json.Marshal(map[string]string{"error": msg})
	_, _ = w.Write(append(data, '\n'))
}
