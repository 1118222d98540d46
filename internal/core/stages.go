package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/service"
	"repro/internal/trace"
)

// The built-in stages, in the order the Client composes them (outermost
// first):
//
//	traceStage    — root span per invocation (only when Config.Tracer is set)
//	cacheStage    — response cache + single-flight de-duplication
//	breakerStage  — circuit breaker (only when Config.Breaker enables it)
//	shedStage     — adaptive admission control (only when Config.Shed
//	                enables it; after the breaker so open-circuit
//	                fast-fails stay out of the admission window)
//	deadlineStage — predicted-latency deadline (only when Config.Deadline
//	                enables it)
//	monitorStage  — latency/availability observation + quality rating
//	predictStage  — latency-parameter observation
//	retryStage    — per-service retries (failover.InvokeFunc)
//
// Every stage on a traced call opens a child span around the rest of the
// chain and annotates its decision (cache hit/miss, breaker state,
// computed deadline, attempt count), so /v1/traces/{id} shows one
// invocation's complete journey through the stack. The swap pattern —
// stash call.span, install the child, restore after next returns — keeps
// nesting correct without any context allocation on the hot path; the zero
// Span makes all of it inert when tracing is off or the trace unsampled.
//
// Client-wide middleware (Config.Middleware) wraps outside the whole
// stack, so custom stages observe every call including cache hits. Each
// stage is independently constructible and testable; a Client is just one
// particular composition.

// traceStage opens the root span for each invocation, named for the
// registration ("invoke <service>") and joined to any span already in ctx
// (an HTTP request span, a pipeline item span). It is composed outermost
// when Config.Tracer is set, so the span covers custom middleware too.
// Unsampled invocations carry the zero Span and cost nothing downstream.
func traceStage(tr *trace.Tracer) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			sp := tr.StartSpan(ctx, call.reg.spanName)
			if !sp.Recording() {
				return next(ctx, call)
			}
			sp.SetAttr("service", call.reg.name)
			call.span = sp
			resp, err := next(ctx, call)
			call.span = trace.Span{}
			if err != nil {
				sp.SetError(err)
			}
			sp.End()
			return resp, err
		}
	}
}

// cacheStage serves cacheable calls from the client's sharded LRU,
// de-duplicating concurrent misses for the same key through flight so one
// backend call feeds every waiter (paper §2: caching avoids redundant
// service calls). Calls that are not cacheable, or carry NoCache, pass
// through untouched. The invocation context governs the single-flight
// wait: a caller whose ctx is cancelled while another caller's fill is in
// flight returns ctx.Err() immediately instead of waiting out the leader.
// A miss fills through cache.Fill, so a response whose backend call an
// invalidateCache overtook answers its callers but is not cached.
func cacheStage(mem *cache.Sharded[service.Response], flight *cache.Group[service.Response]) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			if !call.reg.cacheable || call.NoCache {
				return next(ctx, call)
			}
			key := call.Req.CacheKey(call.reg.cachePrefix)
			parent := call.span
			sp := parent.Child("cache")
			// Hit fast path first: probing the cache before building the
			// fill closure keeps the hit entirely allocation-free beyond
			// the key itself. Fill is stats-neutral, so the probe stays
			// the only recorded cache lookup.
			if resp, err := mem.Get(key); err == nil {
				sp.SetAttr("cache", "hit")
				sp.End()
				return resp, nil
			}
			sp.SetAttr("cache", "miss")
			call.span = sp
			resp, err := cache.Fill(ctx, mem, flight, key, func() (service.Response, error) {
				return next(ctx, call)
			})
			call.span = parent
			sp.End()
			return resp, err
		}
	}
}

// breakerStage consults the service's circuit breaker before the call and
// records the outcome after: consecutive transient failures trip the
// breaker, which then rejects calls with failover.ErrBreakerOpen until its
// cooldown admits a probe. Client.Rank demotes tripped services, feeding
// observed availability back into selection.
func breakerStage(set *failover.BreakerSet) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("breaker")
			b := set.For(call.reg.name)
			if !b.Allow() {
				err := fmt.Errorf("%w: %s", failover.ErrBreakerOpen, call.reg.name)
				sp.SetAttr("state", "open")
				sp.SetError(err)
				sp.End()
				return service.Response{}, err
			}
			if sp.Recording() {
				sp.SetAttr("state", b.State())
			}
			call.span = sp
			// The outcome is recorded deferred, and stays errPanicked
			// unless next returns: a panicking service counts as a
			// failure, and a panicking half-open probe re-opens the
			// breaker instead of holding the probe slot for good. The
			// panic goes on up the stack.
			err := errPanicked
			defer func() {
				call.span = parent
				b.Record(err)
				sp.End()
			}()
			var resp service.Response
			resp, err = next(ctx, call)
			return resp, err
		}
	}
}

// errPanicked is the outcome breakerStage records for a call whose
// service panicked. It wraps ErrUnavailable, so it counts toward the
// breaker's threshold.
var errPanicked = fmt.Errorf("core: service panicked: %w", service.ErrUnavailable)

// DeadlineConfig configures deadlineStage.
type DeadlineConfig struct {
	// Factor multiplies the predicted latency to produce the call's
	// deadline. Zero disables the stage.
	Factor float64
	// Floor is the minimum deadline, guarding against overly aggressive
	// predictions from sparse data. Zero means 100ms.
	Floor time.Duration
	// Cap bounds the deadline from above. Zero means uncapped.
	Cap time.Duration
}

func (c *DeadlineConfig) fill() {
	if c.Factor > 0 && c.Floor <= 0 {
		c.Floor = 100 * time.Millisecond
	}
}

// deadlineStage bounds each call at Factor × the service's predicted
// latency (clamped to [Floor, Cap]), derived from the same parameterized
// prediction that drives ranking (paper §2). Services with no prediction
// yet run unbounded. When the stage's own deadline — not the caller's —
// expires, the error wraps failover.ErrDeadline so the breaker treats the
// service as unavailable. The deadline runs on real time (context
// machinery); virtual-clock simulations should leave the stage disabled.
func deadlineStage(predictLatency func(name string, params []float64) (time.Duration, error), cfg DeadlineConfig) Middleware {
	cfg.fill()
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("deadline")
			pred, err := predictLatency(call.reg.name, call.latencyParams())
			if err != nil || pred <= 0 {
				sp.SetAttr("deadline", "unbounded")
				call.span = sp
				resp, err := next(ctx, call)
				call.span = parent
				sp.End()
				return resp, err
			}
			d := time.Duration(cfg.Factor * float64(pred))
			if d < cfg.Floor {
				d = cfg.Floor
			}
			if cfg.Cap > 0 && d > cfg.Cap {
				d = cfg.Cap
			}
			sp.SetDuration("predicted_ms", pred)
			sp.SetDuration("deadline_ms", d)
			dctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			call.span = sp
			resp, err := next(dctx, call)
			call.span = parent
			if err != nil && errors.Is(dctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
				err = fmt.Errorf("%w: %s after %v: %w", failover.ErrDeadline, call.reg.name, d, err)
				sp.SetError(err)
			}
			sp.End()
			return resp, err
		}
	}
}

// monitorStage records every call that reaches the service — latency,
// availability, attempts — into the service's monitor, and rates successful
// responses with the registration's quality function (paper §2: monitoring
// and data collection, service quality evaluation). Latency parameters go
// to predictStage alone.
func monitorStage(monitors *metrics.Registry) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("monitor")
			call.span = sp
			resp, err := next(ctx, call)
			call.span = parent
			mon := monitors.Monitor(call.reg.name)
			mon.Record(metrics.Observation{
				Latency:  call.Elapsed,
				Err:      err,
				Attempts: call.Attempts,
			})
			sp.SetDuration("recorded_ms", call.Elapsed)
			sp.End()
			if err != nil {
				return service.Response{}, err
			}
			if q := call.reg.quality; q != nil {
				mon.RecordQuality(q(call.Req, resp))
			}
			return resp, nil
		}
	}
}

// predictStage feeds successful calls' (latency parameters, latency) pairs
// into the service's latency predictor (paper §2: predicting latency from
// latency parameters).
func predictStage(set *predictorSet) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("predict")
			call.span = sp
			resp, err := next(ctx, call)
			call.span = parent
			if err == nil {
				set.Observe(call.reg.name, call.latencyParams(), call.Elapsed)
			}
			sp.End()
			return resp, err
		}
	}
}

// retryStage applies the call's retry policy to the rest of the chain
// (paper §2.1: retrying unresponsive services a per-service number of
// times), recording the attempt count and total elapsed time — including
// backoff — on the call for the observation stages outside it.
func retryStage(clk clock.Clock) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("retry")
			call.span = sp
			start := clk.Now()
			attempt := 0
			resp, attempts, err := failover.InvokeFunc(ctx, clk, func(ctx context.Context) (service.Response, error) {
				attempt++
				asp := sp.Child("attempt")
				asp.SetInt("attempt", int64(attempt))
				call.span = asp
				r, e := next(ctx, call)
				call.span = sp
				if e != nil {
					asp.SetError(e)
				}
				asp.End()
				return r, e
			}, call.Retry())
			call.Attempts = attempts
			call.Elapsed = clk.Since(start)
			call.span = parent
			sp.SetInt("attempts", int64(attempts))
			sp.SetDuration("elapsed_ms", call.Elapsed)
			if err != nil {
				sp.SetError(err)
			}
			sp.End()
			return resp, err
		}
	}
}

// predictorSet owns the per-service latency predictors of one Client.
// predict.Predictor is not itself safe for concurrent use, so every Observe
// and Predict runs under the set's lock. It is safe for concurrent use.
type predictorSet struct {
	cfg predict.Config

	mu sync.Mutex
	m  map[string]*predict.Predictor
}

// newPredictorSet returns an empty set producing predictors from cfg.
func newPredictorSet(cfg predict.Config) *predictorSet {
	return &predictorSet{cfg: cfg, m: make(map[string]*predict.Predictor)}
}

// predictor returns the named service's predictor, creating and registering
// it on first use so no observation is ever dropped. Callers must hold mu.
func (s *predictorSet) predictor(name string) *predict.Predictor {
	p := s.m[name]
	if p == nil {
		p = predict.New(s.cfg)
		s.m[name] = p
	}
	return p
}

// Observe records that an invocation of name with the given latency
// parameters took lat.
func (s *predictorSet) Observe(name string, params []float64, lat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.predictor(name).Observe(params, lat)
}

// Predict estimates the latency of invoking name with the given parameters;
// peersMS carries mean latencies of similar services for the peer fallback
// policies.
func (s *predictorSet) Predict(name string, params, peersMS []float64) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.predictor(name).Predict(params, peersMS)
}
