package core

import (
	"context"
	"time"

	"repro/internal/failover"
	"repro/internal/service"
	"repro/internal/trace"
)

// This file defines the SDK's invocation pipeline. The paper's Fig. 2
// presents the rich SDK as a stack of orthogonal features — caching,
// monitoring, quality evaluation, ranking, failure handling — and
// the pipeline realizes that stack literally: every cross-cutting concern
// is a Middleware (the http.RoundTripper / gRPC-interceptor pattern), and a
// Client invocation is the composed chain applied to a transport that calls
// the underlying service. New concerns (tracing, hedging, sharding) plug in
// as stages without touching Client.Invoke.

// Invoker performs one invocation described by call. It is the unit the
// middleware chain composes: the innermost Invoker is the transport that
// calls the service itself; every stage wraps an Invoker with one concern.
type Invoker func(ctx context.Context, call *Call) (service.Response, error)

// Middleware wraps an Invoker with one cross-cutting concern. A stage that
// acts before the call mutates ctx or call and delegates; a stage that acts
// after inspects the response, the error, and the fields later stages
// recorded on call (Attempts, Elapsed).
type Middleware func(next Invoker) Invoker

// compose wraps base with mw, first element outermost, and returns the
// resulting Invoker:
//
//	compose(t, a, b)(ctx, call) == a(b(t))(ctx, call)
func compose(base Invoker, mw ...Middleware) Invoker {
	for i := len(mw) - 1; i >= 0; i-- {
		base = mw[i](base)
	}
	return base
}

// Call describes one invocation flowing through the middleware chain. The
// Client constructs it with the registration's resolved settings; stages
// read the fields they need and record their outcomes back onto it.
// Per-registration constants (name, service, cacheability, user hooks)
// live behind the reg pointer so building a Call costs a handful of
// stores, not a copy of the whole registration.
//
// Calls are pooled: a Call is valid only until the chain returns, so
// middleware must not retain one (or its Req) past the invocation.
type Call struct {
	// Req is the request being invoked.
	Req service.Request
	// NoCache bypasses the response cache for this call.
	NoCache bool
	// Attempts is the number of transport attempts made, recorded by
	// retryStage.
	Attempts int
	// Elapsed is the measured transport time including retries and
	// backoff, recorded by retryStage.
	Elapsed time.Duration

	reg    *registration
	step   bool // a failover step: one attempt, the chain's step policy retries
	params []float64

	// span is the innermost open trace span for this call. traceStage sets
	// the root; each built-in stage swaps in its child around next so inner
	// stages nest correctly. The zero Span (tracing disabled or the trace
	// unsampled) is inert, so stages never need to test it.
	span trace.Span
}

// Name returns the target service's registered name.
func (c *Call) Name() string { return c.reg.name }

// Retry returns the effective retry policy for this call: the
// registration's (WithRetry, else the client default), or a single attempt
// for a failover step.
func (c *Call) Retry() failover.RetryPolicy {
	if c.step {
		return failover.RetryPolicy{MaxAttempts: 1}
	}
	return c.reg.policy
}

// Service returns the transport the terminal Invoker calls.
func (c *Call) Service() service.Service { return c.reg.svc }

// latencyParams returns the call's latency parameters (paper §2), the
// request's argument size in bytes, computing them on first use so the
// cache-hit fast path never pays for them.
func (c *Call) latencyParams() []float64 {
	if c.params == nil {
		c.params = []float64{float64(c.Req.ArgSize())}
	}
	return c.params
}

// transport returns the terminal Invoker: one attempt against the service.
func transport() Invoker {
	return func(ctx context.Context, call *Call) (service.Response, error) {
		return call.reg.svc.Invoke(ctx, call.Req)
	}
}
