// Package core implements the rich SDK itself — the paper's primary
// contribution. The Client ties the substrates together behind a composable
// middleware pipeline (middleware.go, stages.go): a registry of services
// grouped by functionality, and a per-registration chain of stages covering
// response caching with single-flight de-duplication, circuit breaking,
// admission control, predicted-latency deadlines, per-service monitoring
// (performance, availability, quality), latency prediction from latency
// parameters, and per-service retries. On top of the chain the Client
// offers score-based ranking and selection (Equations 1 and 2), ranked
// failover across a category, and synchronous, asynchronous
// (ListenableFuture style), and redundant invocation. Custom stages inject
// client-wide (Config.Middleware). An HTTP façade (httpapi.go) exposes the
// SDK to applications written in other languages.
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
	// errUnknownService is returned for invocations of unregistered
	// service names.
	errUnknownService = errors.New("core: unknown service")
	// errUnknownCategory is returned for category invocations with no
	// registered services.
	errUnknownCategory = errors.New("core: unknown category")
)

// QualityFunc rates the quality of a service response; higher is better
// (paper §2: "users can provide methods to rate the quality of different
// services").
type QualityFunc func(req service.Request, resp service.Response) float64

// Config configures a Client. The zero value is usable: real clock, a
// 4096-entry cache with no TTL, Equation 1 scoring with default weights,
// one retry for transient failures, and no circuit breaking, shedding or
// deadlines. Asynchronous invocations share a pool of asyncWorkers workers
// and asyncQueue queued tasks (paper §2.1: "thread pools of limited
// size"), and latency predictors fall back to the category's peer average
// while a service has too little history.
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
	// Breaker enables per-service circuit breakers (breakerStage) when
	// Threshold > 0.
	Breaker failover.BreakerConfig
	// Deadline enables predicted-latency deadlines (deadlineStage) when
	// Factor > 0.
	Deadline DeadlineConfig
	// Shed enables adaptive admission control (shedStage) when TargetP99
	// > 0: over-limit calls fail fast with errShed instead of queueing
	// the facade into collapse.
	Shed ShedConfig
	// Tracer enables distributed-style tracing of invocations: a root span
	// per call (traceStage) with one child span per middleware stage. Nil
	// disables tracing; a tracer with SampleRate 0 is treated as disabled.
	Tracer *trace.Tracer
	// Middleware is injected outermost into every registration's chain,
	// in order. Use it for client-wide concerns such as logging or
	// tracing.
	Middleware []Middleware
}

// BreakerConfig is the breaker's configuration under the name the SDK's
// programs know it by.
type BreakerConfig = failover.BreakerConfig

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
	c.Deadline.fill()
}

// The async pool's bounds: workers, and tasks queued beyond them before
// InvokeAsync fails fast with future.ErrPoolSaturated.
const (
	asyncWorkers = 8
	asyncQueue   = 256
)

// registration holds per-service configuration alongside the service, plus
// the middleware chain composed for it at registration time.
type registration struct {
	name        string // svc.Info().Name, cached off the hot path
	cachePrefix string // "svc:<name>:", precomputed for cacheStage
	spanName    string // "invoke <name>", precomputed for traceStage
	svc         service.Service
	policy      failover.RetryPolicy // WithRetry's, else the client default
	quality     QualityFunc
	cacheable   bool

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
	predictors *predictorSet
	breakers   *failover.BreakerSet // nil when Config.Breaker is disabled
	shedder    *Shedder             // nil when Config.Shed is disabled

	// regs is a copy-on-write snapshot: Register rebuilds it under mu,
	// invocations read it with a single atomic load and no lock.
	regs atomic.Pointer[map[string]*registration]
	mu   sync.Mutex
}

// NewClient returns a Client with the given configuration.
func NewClient(cfg Config) (*Client, error) {
	cfg.fill()
	pool, err := future.NewPool(asyncWorkers, asyncQueue)
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
		predictors: newPredictorSet(predict.Config{Policy: predict.DefaultPeerAverage}),
	}
	empty := make(map[string]*registration)
	c.regs.Store(&empty)
	if cfg.Breaker.Threshold > 0 {
		c.breakers = failover.NewBreakerSet(cfg.Breaker, cfg.Clock)
	}
	if cfg.Shed.TargetP99 > 0 {
		c.shedder = newShedder(cfg.Shed, cfg.Clock)
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
	return func(r *registration) { r.policy = p }
}

// WithQuality sets the user's quality-rating method for the service; it
// runs on every successful response and feeds the service's quality score.
func WithQuality(f QualityFunc) RegisterOption {
	return func(r *registration) { r.quality = f }
}

// WithCacheable marks the service's responses as cacheable. Caching "will
// not be applicable for all remote services" (paper §2) — storage writes,
// for example, must always reach the service — so it is opt-in per service.
func WithCacheable() RegisterOption {
	return func(r *registration) { r.cacheable = true }
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
		policy: c.cfg.DefaultRetry,
	}
	reg.cachePrefix = "svc:" + reg.name + ":"
	reg.spanName = "invoke " + reg.name
	for _, o := range opts {
		o(reg)
	}
	reg.invoke = compose(transport(), c.stages(reg)...)
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
	mw := make([]Middleware, 0, len(c.cfg.Middleware)+8)
	if c.cfg.Tracer.Enabled() {
		// Outermost of all, so the root span covers custom middleware too.
		mw = append(mw, traceStage(c.cfg.Tracer))
	}
	mw = append(mw, c.cfg.Middleware...)
	mw = append(mw, cacheStage(c.memcache, c.flight))
	if c.breakers != nil {
		mw = append(mw, breakerStage(c.breakers))
	}
	if c.shedder != nil {
		// After the breaker on purpose: see shedStage.
		mw = append(mw, shedStage(c.shedder))
	}
	if c.cfg.Deadline.Factor > 0 {
		mw = append(mw, deadlineStage(c.PredictLatency, c.cfg.Deadline))
	}
	mw = append(mw,
		monitorStage(c.monitors),
		predictStage(c.predictors),
		retryStage(c.cfg.Clock),
	)
	return mw
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
func (c *Client) BreakerStates() []failover.BreakerState {
	if c.breakers == nil {
		return nil
	}
	return c.breakers.States()
}

// InvokeOption customizes a single invocation.
type InvokeOption func(*invokeOpts)

type invokeOpts struct {
	noCache bool
	step    bool // a failover step: one attempt, the chain's step policy retries
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

// fillCall populates the Call a registration's chain will execute. It
// writes every Call field, so a recycled Call needs no prior reset.
func (c *Client) fillCall(call *Call, reg *registration, req *service.Request, io invokeOpts) {
	call.Req = *req
	call.NoCache = io.noCache
	call.Attempts = 0
	call.Elapsed = 0
	call.reg = reg
	call.step = io.step
	call.params = nil
	call.span = trace.Span{}
}

// callPool recycles Call values so the cache-hit fast path does not pay a
// heap allocation per invocation. Calls are valid only until the chain
// returns (see Call).
var callPool = sync.Pool{New: func() any { return new(Call) }}

// run sends one call through the registration's composed chain. req is a
// pointer purely to avoid copying the request an extra time on the hot
// path; it is copied into the Call, never retained. io travels by value so
// the options never escape to the heap.
func (c *Client) run(ctx context.Context, reg *registration, req *service.Request, io invokeOpts) (service.Response, error) {
	call := callPool.Get().(*Call)
	c.fillCall(call, reg, req, io)
	resp, err := reg.invoke(ctx, call)
	// A parked Call keeps its last request until reuse overwrites it or the
	// next GC cycle releases the pool entry; both bound the retention, so no
	// per-call reset is needed (fillCall rewrites every field on reuse).
	callPool.Put(call)
	return resp, err
}

// Invoke synchronously calls the named service through its middleware
// chain: caching, circuit breaking, admission control, deadlines,
// monitoring, latency observation, and retries are all stages of the
// composed pipeline.
func (c *Client) Invoke(ctx context.Context, name string, req service.Request, opts ...InvokeOption) (service.Response, error) {
	var io invokeOpts
	if len(opts) > 0 {
		io = parseInvokeOpts(opts)
	}
	reg, ok := c.reg(name)
	if !ok {
		return service.Response{}, fmt.Errorf("%w: %s", errUnknownService, name)
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
		return 0, fmt.Errorf("%w: %s", errUnknownService, name)
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

// estimates builds ranking estimates for every service in category, for the
// given request: predicted response time from collected data, monetary cost
// from the service's cost model, and mean recorded quality.
func (c *Client) estimates(category string, req service.Request) ([]rank.Estimate, error) {
	svcs := c.registry.Category(category)
	if len(svcs) == 0 {
		return nil, fmt.Errorf("%w: %s", errUnknownCategory, category)
	}
	ests := make([]rank.Estimate, 0, len(svcs))
	params := []float64{float64(req.ArgSize())} // read, never kept, by the predictors
	for _, svc := range svcs {
		info := svc.Info()
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
	ests, err := c.estimates(category, req)
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
// by the category-level cache here), so monitoring, breakers, shedding
// and deadlines all apply per attempt.
func (c *Client) InvokeCategory(ctx context.Context, category string, req service.Request, opts ...InvokeOption) (service.Response, []failover.Attempt, error) {
	var io invokeOpts
	if len(opts) > 0 {
		io = parseInvokeOpts(opts)
	}
	// Category-level cache: any service's response satisfies the request,
	// so a hit needs no ranking. An unknown category can have no entry and
	// falls through to Rank's errUnknownCategory.
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
		if reg.cacheable {
			cacheable = true
		}
		steps = append(steps, failover.Step{Service: c.stepService(reg), Policy: reg.policy})
	}
	if !cacheable || io.noCache {
		return failover.Chain(ctx, c.cfg.Clock, steps, req)
	}
	// Fill, as in cacheStage: concurrent identical calls share one chain,
	// and a chain that an invalidateCache overtook is not cached. A caller
	// served by another's chain gets no attempts, as on a cache hit.
	var attempts []failover.Attempt
	resp, err := cache.Fill(ctx, c.memcache, c.flight, key, func() (resp service.Response, err error) {
		resp, attempts, err = failover.Chain(ctx, c.cfg.Clock, steps, req)
		return resp, err
	})
	return resp, attempts, err
}

// InvokeAll redundantly invokes every service in category in parallel and
// returns all results in registry order — the paper's multi-service case
// for redundancy or for comparing and combining outputs. Every invocation
// runs through its service's middleware chain.
func (c *Client) InvokeAll(ctx context.Context, category string, req service.Request) ([]failover.Result, error) {
	svcs := c.registry.Category(category)
	if len(svcs) == 0 {
		return nil, fmt.Errorf("%w: %s", errUnknownCategory, category)
	}
	wrapped := make([]service.Service, len(svcs))
	for i, svc := range svcs {
		reg, _ := c.reg(svc.Info().Name)
		wrapped[i] = c.stepService(reg)
	}
	return failover.InvokeAll(ctx, c.cfg.Clock, wrapped, req), nil
}

// CacheStats returns the response cache's activity counters, merged
// across shards.
func (c *Client) CacheStats() cache.Stats { return c.memcache.Stats() }

// cacheShardStats returns each cache shard's counters in shard order, for
// per-shard gauges and balance diagnostics.
func (c *Client) cacheShardStats() []cache.Stats { return c.memcache.ShardStats() }

// invalidateCache drops every cached response (paper §2: "consistency
// issues may arise in which a cached value is obsolete"). A backend call
// already in flight when it runs still answers the callers waiting on it,
// but its response is not cached: once invalidateCache returns, the cache
// holds only responses from backend calls that started after it began.
func (c *Client) invalidateCache() { c.memcache.Clear() }

// stepService adapts a registration's chain to a service.Service for
// failover chains and redundant invocation: each attempt is a single pass
// through the pipeline (retries belong to the chain's step policy), with
// the per-service cache skipped so the category-level cache governs.
func (c *Client) stepService(reg *registration) service.Service {
	return service.Func{
		Meta: reg.svc.Info(),
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			return c.run(ctx, reg, &req, invokeOpts{noCache: true, step: true})
		},
	}
}
