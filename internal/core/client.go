// Package core implements the rich SDK itself — the paper's primary
// contribution. The Client ties the substrates together behind a composable
// middleware pipeline (middleware.go, stages.go): a registry of services
// grouped by functionality, and a per-registration chain of stages covering
// response caching with single-flight de-duplication, circuit breaking,
// client-side quotas, predicted-latency deadlines, per-service monitoring
// (performance, availability, quality), latency prediction from latency
// parameters, and per-service retries. On top of the chain the Client
// offers score-based ranking and selection (Equations 1 and 2), ranked
// failover across a category, and synchronous, asynchronous
// (ListenableFuture style), and redundant invocation. Custom stages inject
// client-wide (Config.Middleware), per registration (WithMiddleware), or
// per invocation (WithInvokeMiddleware). An HTTP façade (httpapi.go)
// exposes the SDK to applications written in other languages.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/future"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/rank"
	"repro/internal/service"
	"repro/internal/trace"
)

// Errors returned by the client.
var (
	// ErrUnknownService is returned for invocations of unregistered
	// service names.
	ErrUnknownService = errors.New("core: unknown service")
	// ErrUnknownCategory is returned for category invocations with no
	// registered services.
	ErrUnknownCategory = errors.New("core: unknown category")
	// ErrClientQuota is returned when the SDK's client-side quota for a
	// service is exhausted (the remote call is not attempted).
	ErrClientQuota = errors.New("core: client-side quota exhausted")
)

// QualityFunc rates the quality of a service response; higher is better
// (paper §2: "users can provide methods to rate the quality of different
// services").
type QualityFunc func(req service.Request, resp service.Response) float64

// ParamsFunc extracts latency parameters from a request (paper §2: "latency
// parameters are provided by users"). The default extracts the argument
// size in bytes.
type ParamsFunc func(req service.Request) []float64

// Config configures a Client. The zero value is usable: real clock, a
// 4096-entry cache with no TTL, Equation 1 scoring with default weights,
// one retry for transient failures, an 8-worker async pool, and no circuit
// breaking or deadlines.
type Config struct {
	// Clock is the SDK's timeline. Nil means the real clock.
	Clock clock.Clock
	// CacheSize bounds the response cache (entries). 0 means 4096.
	CacheSize int
	// CacheTTL expires cached responses. 0 means no expiry. The paper
	// notes cached values can become obsolete; a TTL bounds staleness.
	CacheTTL time.Duration
	// Scorer ranks services. Nil means Equation 1 with DefaultWeights.
	Scorer rank.Scorer
	// DefaultRetry applies to services registered without their own
	// policy. Zero means 2 attempts, no backoff.
	DefaultRetry failover.RetryPolicy
	// AsyncWorkers and AsyncQueue bound the thread pool used for
	// asynchronous invocation (paper §2.1: "thread pools of limited
	// size").  Zero means 8 workers, 256 queued tasks.
	AsyncWorkers int
	AsyncQueue   int
	// Predict configures latency predictors. The zero value uses the
	// predict package defaults with peer-average fallback.
	Predict predict.Config
	// Breaker enables per-service circuit breakers (BreakerStage) when
	// Threshold > 0.
	Breaker BreakerConfig
	// Deadline enables predicted-latency deadlines (DeadlineStage) when
	// Factor > 0.
	Deadline DeadlineConfig
	// Shed enables adaptive admission control (ShedStage) when TargetP99
	// > 0: over-limit calls fail fast with ErrShed instead of queueing
	// the facade into collapse.
	Shed ShedConfig
	// Tracer enables distributed-style tracing of invocations: a root span
	// per call (TraceStage) with one child span per middleware stage. Nil
	// disables tracing; a tracer with SampleRate 0 is treated as disabled.
	Tracer *trace.Tracer
	// Middleware is injected outermost into every registration's chain,
	// in order. Use it for client-wide concerns such as logging or
	// tracing.
	Middleware []Middleware
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.Scorer == nil {
		c.Scorer = rank.Weighted{W: rank.DefaultWeights}
	}
	if c.DefaultRetry.MaxAttempts == 0 {
		c.DefaultRetry = failover.RetryPolicy{MaxAttempts: 2}
	}
	if c.AsyncWorkers <= 0 {
		c.AsyncWorkers = 8
	}
	if c.AsyncQueue <= 0 {
		c.AsyncQueue = 256
	}
	if c.Predict.Policy == 0 {
		c.Predict.Policy = predict.DefaultPeerAverage
	}
	c.Breaker.fill()
	c.Deadline.fill()
}

// registration holds per-service configuration alongside the service, plus
// the middleware chain composed for it at registration time.
type registration struct {
	name        string // svc.Info().Name, cached off the hot path
	cachePrefix string // "svc:<name>:", precomputed for CacheStage
	spanName    string // "invoke <name>", precomputed for TraceStage
	svc         service.Service
	retry       *failover.RetryPolicy
	policy      failover.RetryPolicy // retry resolved against the client default
	quality     QualityFunc
	params      ParamsFunc
	quota       *service.Quota
	cacheable   bool
	mw          []Middleware

	invoke Invoker // the composed stage chain
}

// Client is the rich SDK entry point. It is safe for concurrent use after
// all services are registered.
type Client struct {
	cfg        Config
	registry   *service.Registry
	monitors   *metrics.Registry
	memcache   *cache.Sharded[service.Response]
	flight     *cache.Group[service.Response]
	pool       *future.Pool
	predictors *PredictorSet
	breakers   *BreakerSet // nil when Config.Breaker is disabled
	shedder    *Shedder    // nil when Config.Shed is disabled

	// regs is a copy-on-write snapshot: Register rebuilds it under mu,
	// invocations read it with a single atomic load and no lock.
	regs atomic.Pointer[map[string]*registration]
	mu   sync.Mutex
}

// NewClient returns a Client with the given configuration.
func NewClient(cfg Config) (*Client, error) {
	cfg.fill()
	pool, err := future.NewPool(cfg.AsyncWorkers, cfg.AsyncQueue)
	if err != nil {
		return nil, fmt.Errorf("core: async pool: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		registry: service.NewRegistry(),
		monitors: metrics.NewRegistry(),
		memcache: cache.NewSharded[service.Response](cfg.CacheSize,
			cache.WithTTL(cfg.CacheTTL), cache.WithClock(cfg.Clock)),
		flight:     cache.NewGroup[service.Response](),
		pool:       pool,
		predictors: NewPredictorSet(cfg.Predict),
	}
	empty := make(map[string]*registration)
	c.regs.Store(&empty)
	if cfg.Breaker.Threshold > 0 {
		c.breakers = NewBreakerSet(cfg.Breaker, cfg.Clock)
	}
	if cfg.Shed.TargetP99 > 0 {
		c.shedder = NewShedder(cfg.Shed, cfg.Clock)
	}
	return c, nil
}

// Shedder exposes the client's adaptive admission controller for metrics
// exposition and experiments; nil when shedding is disabled.
func (c *Client) Shedder() *Shedder { return c.shedder }

// Close releases the client's async pool, waiting for in-flight async
// invocations to finish.
func (c *Client) Close() { c.pool.Close() }

// RegisterOption customizes one service registration.
type RegisterOption func(*registration)

// WithRetry sets the service's retry policy (paper §2.1: the retry count
// "can be specified by the user and may be different for different
// services").
func WithRetry(p failover.RetryPolicy) RegisterOption {
	return func(r *registration) { r.retry = &p }
}

// WithQuality sets the user's quality-rating method for the service; it
// runs on every successful response and feeds the service's quality score.
func WithQuality(f QualityFunc) RegisterOption {
	return func(r *registration) { r.quality = f }
}

// WithLatencyParams sets the user's latency-parameter extractor for the
// service.
func WithLatencyParams(f ParamsFunc) RegisterOption {
	return func(r *registration) { r.params = f }
}

// WithClientQuota makes the SDK refuse invocations beyond the quota without
// calling the remote service, preserving a limited allowance.
func WithClientQuota(q *service.Quota) RegisterOption {
	return func(r *registration) { r.quota = q }
}

// WithCacheable marks the service's responses as cacheable. Caching "will
// not be applicable for all remote services" (paper §2) — storage writes,
// for example, must always reach the service — so it is opt-in per service.
func WithCacheable() RegisterOption {
	return func(r *registration) { r.cacheable = true }
}

// WithMiddleware injects mw into this registration's chain, outside the
// built-in stages (so it observes every call, cache hits included) and
// inside any client-wide Config.Middleware.
func WithMiddleware(mw ...Middleware) RegisterOption {
	return func(r *registration) { r.mw = append(r.mw, mw...) }
}

// Register adds a service to the SDK and composes its middleware chain.
func (c *Client) Register(svc service.Service, opts ...RegisterOption) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.registry.Register(svc); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	reg := &registration{
		name:   svc.Info().Name,
		svc:    svc,
		params: func(req service.Request) []float64 { return []float64{float64(req.ArgSize())} },
	}
	reg.cachePrefix = "svc:" + reg.name + ":"
	reg.spanName = "invoke " + reg.name
	for _, o := range opts {
		o(reg)
	}
	reg.policy = c.cfg.DefaultRetry
	if reg.retry != nil {
		reg.policy = *reg.retry
	}
	reg.invoke = Compose(transport(), c.stages(reg)...)
	old := *c.regs.Load()
	next := make(map[string]*registration, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[reg.name] = reg
	c.regs.Store(&next)
	return nil
}

// stages assembles the registration's chain, outermost first. See the
// package-level order documented in stages.go.
func (c *Client) stages(reg *registration) []Middleware {
	mw := make([]Middleware, 0, len(c.cfg.Middleware)+len(reg.mw)+8)
	if c.cfg.Tracer.Enabled() {
		// Outermost of all, so the root span covers custom middleware too
		// and Call.Span is live for it.
		mw = append(mw, TraceStage(c.cfg.Tracer))
	}
	mw = append(mw, c.cfg.Middleware...)
	mw = append(mw, reg.mw...)
	mw = append(mw, CacheStage(c.memcache, c.flight))
	if c.breakers != nil {
		mw = append(mw, BreakerStage(c.breakers))
	}
	if c.shedder != nil {
		// After the breaker on purpose: see ShedStage.
		mw = append(mw, ShedStage(c.shedder))
	}
	mw = append(mw, QuotaStage())
	if c.cfg.Deadline.Factor > 0 {
		mw = append(mw, DeadlineStage(c.PredictLatency, c.cfg.Deadline))
	}
	mw = append(mw,
		MonitorStage(c.monitors),
		PredictStage(c.predictors),
		RetryStage(c.cfg.Clock),
	)
	return mw
}

// MustRegister is Register that panics on error, for program setup code.
func (c *Client) MustRegister(svc service.Service, opts ...RegisterOption) {
	if err := c.Register(svc, opts...); err != nil {
		panic(err)
	}
}

func (c *Client) reg(name string) (*registration, bool) {
	r, ok := (*c.regs.Load())[name]
	return r, ok
}

// Tracer returns the client's tracer, nil when tracing is not configured.
// The nil tracer is safe to use: every method is inert.
func (c *Client) Tracer() *trace.Tracer { return c.cfg.Tracer }

// Monitor returns the monitoring data collected for the named service.
func (c *Client) Monitor(name string) *metrics.Monitor { return c.monitors.Monitor(name) }

// Stats returns monitoring snapshots for every service that has been
// invoked, sorted by name.
func (c *Client) Stats() []metrics.Snapshot { return c.monitors.Snapshots() }

// Registry exposes the underlying service registry (read-only use).
func (c *Client) Registry() *service.Registry { return c.registry }

// BreakerStates summarizes the circuit breakers of every service the
// client has invoked. It is empty when Config.Breaker is disabled.
func (c *Client) BreakerStates() []BreakerState {
	if c.breakers == nil {
		return nil
	}
	return c.breakers.States()
}

// InvokeOption customizes a single invocation.
type InvokeOption func(*invokeOpts)

type invokeOpts struct {
	noCache bool
	retry   *failover.RetryPolicy
	mw      []Middleware
}

// NoCache bypasses the response cache for this invocation.
func NoCache() InvokeOption { return func(o *invokeOpts) { o.noCache = true } }

// parseInvokeOpts applies opts to a fresh invokeOpts. Callers guard it with
// len(opts) > 0: handing &io to a dynamic option function forces io onto
// the heap, and the split keeps the zero-option fast path allocation-free.
func parseInvokeOpts(opts []InvokeOption) invokeOpts {
	var io invokeOpts
	for _, o := range opts {
		o(&io)
	}
	return io
}

// Retry overrides the retry policy for this invocation.
func Retry(p failover.RetryPolicy) InvokeOption {
	return func(o *invokeOpts) { o.retry = &p }
}

// WithInvokeMiddleware injects mw outermost around this invocation's chain
// (for category invocation, around each attempted service's chain).
func WithInvokeMiddleware(mw ...Middleware) InvokeOption {
	return func(o *invokeOpts) { o.mw = append(o.mw, mw...) }
}

// fillCall populates the Call a registration's chain will execute,
// resolving the effective retry policy (client default < registration <
// invocation). It writes every Call field, so a recycled Call needs no
// prior reset.
func (c *Client) fillCall(call *Call, reg *registration, req *service.Request, io invokeOpts) {
	call.Req = *req
	call.NoCache = io.noCache
	call.Attempts = 0
	call.Elapsed = 0
	call.reg = reg
	call.retryOverride = io.retry
	call.params = nil
	call.span = trace.Span{}
}

// callPool recycles Call values so the cache-hit fast path does not pay a
// heap allocation per invocation. Calls are valid only until the chain
// returns (see Call).
var callPool = sync.Pool{New: func() any { return new(Call) }}

// run sends one call through the registration's composed chain, wrapping
// any per-invocation middleware around it. req is a pointer purely to
// avoid copying the request an extra time on the hot path; it is copied
// into the Call, never retained. io travels by value so the options never
// escape to the heap.
func (c *Client) run(ctx context.Context, reg *registration, req *service.Request, io invokeOpts) (service.Response, error) {
	inv := reg.invoke
	if len(io.mw) > 0 {
		inv = Compose(inv, io.mw...)
	}
	call := callPool.Get().(*Call)
	c.fillCall(call, reg, req, io)
	resp, err := inv(ctx, call)
	// A parked Call keeps its last request until reuse overwrites it or the
	// next GC cycle releases the pool entry; both bound the retention, so no
	// per-call reset is needed (fillCall rewrites every field on reuse).
	callPool.Put(call)
	return resp, err
}

// Invoke synchronously calls the named service through its middleware
// chain: caching, circuit breaking, quota enforcement, deadlines,
// monitoring, latency observation, and retries are all stages of the
// composed pipeline.
func (c *Client) Invoke(ctx context.Context, name string, req service.Request, opts ...InvokeOption) (service.Response, error) {
	var io invokeOpts
	if len(opts) > 0 {
		io = parseInvokeOpts(opts)
	}
	reg, ok := c.reg(name)
	if !ok {
		return service.Response{}, fmt.Errorf("%w: %s", ErrUnknownService, name)
	}
	return c.run(ctx, reg, &req, io)
}

// InvokeAsync calls the named service on the SDK's bounded pool and returns
// a ListenableFuture-style future. Callbacks registered on the future run
// when the call completes (paper §2: asynchronous invocation with
// registered callbacks). When the pool is saturated or closed the future
// fails immediately — with future.ErrPoolSaturated or future.ErrPoolClosed
// — instead of blocking the caller.
func (c *Client) InvokeAsync(ctx context.Context, name string, req service.Request, opts ...InvokeOption) *future.Future[service.Response] {
	return future.TrySubmit(c.pool, func() (service.Response, error) {
		return c.Invoke(ctx, name, req, opts...)
	})
}

// PredictLatency predicts the latency of invoking the named service with
// the given latency parameters, using the service's recorded history and
// falling back to peer data from the same category per the configured
// default policy.
func (c *Client) PredictLatency(name string, params []float64) (time.Duration, error) {
	reg, ok := c.reg(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownService, name)
	}
	peers := c.peerMeansMS(reg.svc.Info().Category, name)
	return c.predictors.Predict(name, params, peers)
}

// peerMeansMS returns mean latencies (ms) of other services in category.
func (c *Client) peerMeansMS(category, exclude string) []float64 {
	var peers []float64
	for _, svc := range c.registry.Category(category) {
		n := svc.Info().Name
		if n == exclude {
			continue
		}
		if m := c.monitors.Monitor(n); m.Count() > 0 {
			peers = append(peers, float64(m.MeanLatency())/float64(time.Millisecond))
		}
	}
	return peers
}

// Estimates builds ranking estimates for every service in category, for the
// given request: predicted response time from collected data, monetary cost
// from the service's cost model, and mean recorded quality.
func (c *Client) Estimates(category string, req service.Request) ([]rank.Estimate, error) {
	svcs := c.registry.Category(category)
	if len(svcs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCategory, category)
	}
	ests := make([]rank.Estimate, 0, len(svcs))
	for _, svc := range svcs {
		info := svc.Info()
		reg, _ := c.reg(info.Name)
		params := []float64{float64(req.ArgSize())}
		if reg != nil {
			params = reg.params(req)
		}
		var rtMS float64
		if d, err := c.PredictLatency(info.Name, params); err == nil {
			rtMS = float64(d) / float64(time.Millisecond)
		}
		quality, _ := c.monitors.Monitor(info.Name).MeanQuality()
		ests = append(ests, rank.Estimate{
			Name:           info.Name,
			ResponseTimeMS: rtMS,
			Cost:           info.Cost(req),
			Quality:        quality,
		})
	}
	return ests, nil
}

// Rank scores and ranks the services in category for the given request
// using the configured scorer, best first. Services whose circuit breaker
// is open are demoted below every closed-breaker service (stable within
// each group): observed unavailability feeds back into selection, so
// failover chains try healthy services first.
func (c *Client) Rank(category string, req service.Request) ([]rank.Scored, error) {
	ests, err := c.Estimates(category, req)
	if err != nil {
		return nil, err
	}
	ranked := rank.Rank(ests, c.cfg.Scorer)
	if c.breakers != nil {
		sort.SliceStable(ranked, func(i, j int) bool {
			return !c.breakers.Tripped(ranked[i].Name) && c.breakers.Tripped(ranked[j].Name)
		})
	}
	return ranked, nil
}

// Select returns the best-ranked service name in category for the request.
func (c *Client) Select(category string, req service.Request) (string, error) {
	ranked, err := c.Rank(category, req)
	if err != nil {
		return "", err
	}
	return ranked[0].Name, nil
}

// InvokeCategory invokes the best service in category, failing over to
// lower-ranked services (each with its registered retry policy) until one
// responds — the paper's ranked failover. Each attempted service runs
// through its full middleware chain (minus the per-service cache, replaced
// by the category-level cache here), so monitoring, breakers, quotas, and
// deadlines all apply per attempt.
func (c *Client) InvokeCategory(ctx context.Context, category string, req service.Request, opts ...InvokeOption) (service.Response, []failover.Attempt, error) {
	var io invokeOpts
	if len(opts) > 0 {
		io = parseInvokeOpts(opts)
	}
	// Category-level cache: any service's response satisfies the request,
	// so a hit needs no ranking. An unknown category can have no entry and
	// falls through to Rank's ErrUnknownCategory.
	key := req.CacheKey("cat:" + category + ":")
	if !io.noCache {
		if resp, err := c.memcache.Get(key); err == nil {
			return resp, nil, nil
		}
	}
	order, err := c.Rank(category, req)
	if err != nil {
		return service.Response{}, nil, err
	}
	steps := make([]failover.Step, 0, len(order))
	cacheable := false
	for _, s := range order {
		reg, ok := c.reg(s.Name)
		if !ok {
			continue
		}
		policy := c.cfg.DefaultRetry
		if reg.retry != nil {
			policy = *reg.retry
		}
		if io.retry != nil {
			policy = *io.retry
		}
		if reg.cacheable {
			cacheable = true
		}
		steps = append(steps, failover.Step{Service: c.stepService(reg, &io), Policy: policy})
	}
	if !cacheable || io.noCache {
		return failover.Chain(ctx, c.cfg.Clock, steps, req)
	}
	// Fill, as in CacheStage: concurrent identical calls share one chain,
	// and a chain that an InvalidateCache overtook is not cached. A caller
	// served by another's chain gets no attempts, as on a cache hit.
	var attempts []failover.Attempt
	resp, err := cache.Fill(ctx, c.memcache, c.flight, key, func() (resp service.Response, err error) {
		resp, attempts, err = failover.Chain(ctx, c.cfg.Clock, steps, req)
		return resp, err
	})
	return resp, attempts, err
}

// InvokeCategoryAsync runs InvokeCategory on the SDK pool. Pool saturation
// surfaces through the returned future as future.ErrPoolSaturated.
func (c *Client) InvokeCategoryAsync(ctx context.Context, category string, req service.Request, opts ...InvokeOption) *future.Future[service.Response] {
	return future.TrySubmit(c.pool, func() (service.Response, error) {
		resp, _, err := c.InvokeCategory(ctx, category, req, opts...)
		return resp, err
	})
}

// InvokeAll redundantly invokes every service in category in parallel and
// returns all results in registry order — the paper's multi-service case
// for redundancy or for comparing and combining outputs. Every invocation
// runs through its service's middleware chain.
func (c *Client) InvokeAll(ctx context.Context, category string, req service.Request) ([]failover.Result, error) {
	svcs := c.registry.Category(category)
	if len(svcs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCategory, category)
	}
	var io invokeOpts
	wrapped := make([]service.Service, len(svcs))
	for i, svc := range svcs {
		reg, _ := c.reg(svc.Info().Name)
		wrapped[i] = c.stepService(reg, &io)
	}
	return failover.InvokeAll(ctx, c.cfg.Clock, wrapped, req), nil
}

// CacheStats returns the response cache's activity counters, merged
// across shards.
func (c *Client) CacheStats() cache.Stats { return c.memcache.Stats() }

// CacheShardStats returns each cache shard's counters in shard order, for
// per-shard gauges and balance diagnostics.
func (c *Client) CacheShardStats() []cache.Stats { return c.memcache.ShardStats() }

// InvalidateCache drops every cached response (paper §2: "consistency
// issues may arise in which a cached value is obsolete"). A backend call
// already in flight when it runs still answers the callers waiting on it,
// but its response is not cached: once InvalidateCache returns, the cache
// holds only responses from backend calls that started after it began.
func (c *Client) InvalidateCache() { c.memcache.Clear() }

// stepService adapts a registration's chain to a service.Service for
// failover chains and redundant invocation: each attempt is a single pass
// through the pipeline (retries belong to the chain's step policy), with
// the per-service cache skipped so the category-level cache governs.
func (c *Client) stepService(reg *registration, io *invokeOpts) service.Service {
	return service.Func{
		Meta: reg.svc.Info(),
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			step := invokeOpts{
				noCache: true,
				retry:   &failover.RetryPolicy{MaxAttempts: 1},
				mw:      io.mw,
			}
			return c.run(ctx, reg, &req, step)
		},
	}
}
