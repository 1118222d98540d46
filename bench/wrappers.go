package main

import (
	"context"
	"net/http"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/remotestore"
	"repro/internal/service"
)

// Every wrapper here is installed only on a traced rig; the untraced rig
// hands the program its own types and nothing of this file runs.

// chainMiddleware is the outermost Config.Middleware stage: its span covers
// the whole invocation chain of one service, cache hits included.
func chainMiddleware() core.Middleware {
	return func(next core.Invoker) core.Invoker {
		return func(ctx context.Context, call *core.Call) (service.Response, error) {
			sp := spanFrom(ctx).child(lChain)
			if sp.rec == nil {
				return next(ctx, call)
			}
			resp, err := next(withSpan(ctx, sp), call)
			sp.end()
			return resp, err
		}
	}
}

// tracedService wraps one registered backend; calls counts the invocations
// that got past the SDK's caches to it.
type tracedService struct {
	inner service.Service
	layer layer
	calls atomic.Int64
}

func (s *tracedService) Info() service.Info { return s.inner.Info() }

func (s *tracedService) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	s.calls.Add(1)
	sp := spanFrom(ctx).child(s.layer)
	resp, err := s.inner.Invoke(ctx, req)
	sp.end()
	return resp, err
}

// tracedHandler opens a span under the parent the caller's spanHeader
// names and puts it in the request context for the wrappers further in.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
	layer layer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.rec.fromHeader(r.Header.Get(spanHeader)).child(h.layer)
	if sp.rec == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
	sp.end()
}

// spanTransport carries the span in the request context across the HTTP
// hop in spanHeader. With open set it also records the round trip as a
// span of its own (the pipeline's document fetch); without, it only
// forwards its parent (the cluster's calls to its nodes, whose client the
// rig cannot reach except through http.DefaultTransport).
type spanTransport struct {
	base  http.RoundTripper
	open  bool
	layer layer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := spanFrom(req.Context())
	if sp.rec == nil {
		return t.base.RoundTrip(req)
	}
	if t.open {
		sp = sp.child(t.layer)
		defer sp.end()
	}
	req = req.Clone(req.Context()) // a RoundTripper may not modify its request
	req.Header.Set(spanHeader, sp.header())
	return t.base.RoundTrip(req)
}

// tracedCodec wraps the cluster's codec. codec.Codec passes no context, so
// the parent is the span bound to the calling goroutine (the store wrapper
// binds its own before calling into the cluster).
type tracedCodec struct {
	inner    codec.Codec
	rec      *recorder
	bytesIn  atomic.Int64 // user bytes into Encode
	bytesOut atomic.Int64 // stored bytes out of Encode
}

func (c *tracedCodec) Encode(data []byte) ([]byte, error) {
	sp := c.rec.current().child(lEncode)
	out, err := c.inner.Encode(data)
	sp.end()
	c.bytesIn.Add(int64(len(data)))
	c.bytesOut.Add(int64(len(out)))
	return out, err
}

func (c *tracedCodec) Decode(data []byte) ([]byte, error) {
	sp := c.rec.current().child(lDecode)
	out, err := c.inner.Decode(data)
	sp.end()
	return out, err
}

// tracedStore wraps the cluster behind the remotestore.Store surface the
// knowledge base and the store workload use. The surface passes no context:
// the parent comes from the goroutine binding, and the store's own span
// goes down to the cluster in the context so spanTransport can forward it
// to the nodes.
type tracedStore struct {
	*remotestore.Cluster
	rec *recorder
}

var _ remotestore.Store = (*tracedStore)(nil)

func (s *tracedStore) span(l layer) (context.Context, func()) {
	sp := s.rec.current().child(l)
	if sp.rec == nil {
		return context.Background(), func() {}
	}
	unbind := sp.bind()
	return withSpan(context.Background(), sp), func() { unbind(); sp.end() }
}

func (s *tracedStore) Put(key string, value []byte) error {
	ctx, done := s.span(lStorePut)
	defer done()
	return s.Cluster.PutCtx(ctx, key, value)
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	ctx, done := s.span(lStoreGet)
	defer done()
	return s.Cluster.GetCtx(ctx, key)
}

func (s *tracedStore) Keys() ([]string, error) {
	ctx, done := s.span(lStoreKeys)
	defer done()
	return s.Cluster.KeysCtx(ctx)
}

// tracedSink wraps the pipeline's knowledge-base sink.
func tracedSink(sink func(context.Context, []aggregate.EntitySentiment) error) func(context.Context, []aggregate.EntitySentiment) error {
	return func(ctx context.Context, s []aggregate.EntitySentiment) error {
		sp := spanFrom(ctx).child(lSink)
		err := sink(ctx, s)
		sp.end()
		return err
	}
}
