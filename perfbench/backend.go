package main

import (
	"context"
	"io"

	"auditherm/internal/artifact"
)

// timedBackend wraps an artifact.Backend with spans: Put opens
// "artifact.put" with the encoder running in a child "artifact.encode",
// and Open opens "artifact.open" (the caller's decode reads the stream
// afterwards, under its own span). With a nil tracer it only forwards.
type timedBackend struct {
	artifact.Backend
	t *tracer
}

// timedValueBackend is a timedBackend over a backend that memoizes
// decoded values, forwarding artifact.ValueCacher so an engine over
// the wrapper takes the same decode-cache path as one over the inner
// backend.
type timedValueBackend struct {
	*timedBackend
	artifact.ValueCacher
}

// wrapBackend returns inner with timing spans, implementing
// artifact.ValueCacher exactly when inner does.
func wrapBackend(inner artifact.Backend, t *tracer) artifact.Backend {
	tb := &timedBackend{Backend: inner, t: t}
	if vc, ok := inner.(artifact.ValueCacher); ok {
		return &timedValueBackend{timedBackend: tb, ValueCacher: vc}
	}
	return tb
}

func (b *timedBackend) Put(ctx context.Context, key artifact.Digest, encode func(io.Writer) error) (artifact.Info, error) {
	ctx, sp := b.t.start(ctx, "artifact.put")
	defer sp.end()
	return b.Backend.Put(ctx, key, func(w io.Writer) error {
		_, esp := b.t.start(ctx, "artifact.encode")
		defer esp.end()
		return encode(w)
	})
}

func (b *timedBackend) Open(ctx context.Context, key artifact.Digest) (io.ReadCloser, error) {
	ctx, sp := b.t.start(ctx, "artifact.open")
	defer sp.end()
	return b.Backend.Open(ctx, key)
}
