// Package simsvc simulates remote services with controllable latency,
// failure, cost, and quota behaviour. The paper's SDK was evaluated against
// proprietary cloud services (Watson, Bing, cloud data stores); this
// package is the substitution: it wraps any in-process handler in a service
// whose externally observable behaviour — response time as a function of
// request parameters, transient failures, unresponsiveness, per-period
// invocation quotas — matches what a remote cognitive service exhibits,
// while staying fully deterministic under a fixed seed.
package simsvc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
	"repro/internal/xrand"
)

// LatencyModel produces a latency sample for a request.
type LatencyModel interface {
	// Sample returns how long the simulated service takes to handle req.
	Sample(req service.Request, src *xrand.Source) time.Duration
}

// Constant is a fixed latency.
type Constant struct{ D time.Duration }

var _ LatencyModel = Constant{}

// Sample implements LatencyModel.
func (c Constant) Sample(service.Request, *xrand.Source) time.Duration { return c.D }

// Lognormal samples latency from a lognormal distribution with the given
// median and sigma (shape). Lognormal matches the right-skewed, long-tailed
// response times of real web services.
type Lognormal struct {
	Median time.Duration
	Sigma  float64
}

var _ LatencyModel = Lognormal{}

// Sample implements LatencyModel.
func (l Lognormal) Sample(_ service.Request, src *xrand.Source) time.Duration {
	f := src.Lognormal(0, l.Sigma)
	return time.Duration(float64(l.Median) * f)
}

// SizeLinear models latency that grows linearly with the request's argument
// size: latency = Base + PerKB * size/1024. This is the paper's motivating
// example: "the time for storing an object of size a will generally
// increase with a", with different services having different slopes.
type SizeLinear struct {
	Base  time.Duration
	PerKB time.Duration
	// Jitter, if non-zero, multiplies the sample by a lognormal factor
	// with the given sigma so observations are noisy like real services.
	Jitter float64
}

var _ LatencyModel = SizeLinear{}

// Sample implements LatencyModel.
func (s SizeLinear) Sample(req service.Request, src *xrand.Source) time.Duration {
	d := s.Base + time.Duration(float64(s.PerKB)*float64(req.ArgSize())/1024)
	if s.Jitter > 0 {
		d = time.Duration(float64(d) * src.Lognormal(0, s.Jitter))
	}
	return d
}

// Config configures a simulated service.
type Config struct {
	// Info is the service's metadata (name, category, cost model).
	Info service.Info
	// Handler implements the service's actual logic. It may be nil, in
	// which case the service echoes an empty response.
	Handler func(ctx context.Context, req service.Request) (service.Response, error)
	// Latency produces per-request latency. Nil means zero latency.
	Latency LatencyModel
	// FailRate is the probability in [0,1] that an invocation fails with
	// service.ErrUnavailable after its latency elapses.
	FailRate float64
	// Quota, if non-nil, is consumed on every invocation attempt.
	Quota *service.Quota
	// Capacity bounds how many invocations are serviced concurrently,
	// modeling a backend with finite parallelism: excess invocations
	// queue for a slot before their latency elapses, so observed latency
	// grows with offered load once demand exceeds Capacity — the
	// saturation behavior real cognitive services exhibit and the load
	// experiments attack. Zero means unlimited (latency independent of
	// load, the pre-chaos behavior). Queued waiters respect context
	// cancellation.
	Capacity int
	// Seed seeds the service's private RNG. Services with the same seed
	// and request stream behave identically.
	Seed int64
	// Clock is the timeline for sleeps. Nil means the real clock; a
	// virtual clock makes whole simulations instantaneous.
	Clock clock.Clock
	// Down, while true, makes every invocation fail immediately. It can
	// be toggled at runtime via SetDown to script outages.
	Down bool
}

// Service is a simulated remote service. It implements service.Service and
// is safe for concurrent use.
type Service struct {
	cfg   Config
	clk   clock.Clock
	slots chan struct{} // capacity semaphore; nil when unlimited

	mu       sync.Mutex // guards rng and the mutable chaos knobs below
	rng      *xrand.Source
	down     bool
	latency  LatencyModel
	extraLat time.Duration
	failRate float64

	invocations int64
}

var _ service.Service = (*Service)(nil)

// New returns a simulated service from cfg.
func New(cfg Config) *Service {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	s := &Service{
		cfg:      cfg,
		clk:      clk,
		rng:      xrand.New(cfg.Seed),
		down:     cfg.Down,
		latency:  cfg.Latency,
		failRate: cfg.FailRate,
	}
	if cfg.Capacity > 0 {
		s.slots = make(chan struct{}, cfg.Capacity)
	}
	return s
}

// Info implements service.Service.
func (s *Service) Info() service.Info { return s.cfg.Info }

// SetDown toggles a scripted outage: while down, every invocation fails
// immediately with service.ErrUnavailable.
func (s *Service) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// SetFailRate rescripts the transient-failure probability at runtime, so a
// chaos controller can inject 5xx bursts mid-run. The RNG stream is shared
// with the construction-time FailRate, so a service whose rate never
// changes behaves bit-identically to one built with that rate.
func (s *Service) SetFailRate(p float64) {
	s.mu.Lock()
	s.failRate = p
	s.mu.Unlock()
}

// SetExtraLatency injects a fixed additive latency spike on top of the
// model's sample for every subsequent invocation. Zero clears the spike.
func (s *Service) SetExtraLatency(d time.Duration) {
	s.mu.Lock()
	s.extraLat = d
	s.mu.Unlock()
}

// Invocations returns how many invocations have been attempted.
func (s *Service) Invocations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invocations
}

// Invoke implements service.Service: it enforces the quota, queues for a
// capacity slot, samples and waits out the latency, injects failures, and
// finally delegates to the handler.
func (s *Service) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	s.mu.Lock()
	s.invocations++
	down := s.down
	lat := time.Duration(0)
	if s.latency != nil {
		lat = s.latency.Sample(req, s.rng)
	}
	lat += s.extraLat
	fail := s.failRate > 0 && s.rng.Bernoulli(s.failRate)
	s.mu.Unlock()

	if down {
		return service.Response{}, fmt.Errorf("simsvc: %s is down: %w", s.cfg.Info.Name, service.ErrUnavailable)
	}
	if s.cfg.Quota != nil && !s.cfg.Quota.Take() {
		return service.Response{}, fmt.Errorf("simsvc: %s: %w", s.cfg.Info.Name, service.ErrQuotaExceeded)
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		case <-ctx.Done():
			return service.Response{}, fmt.Errorf("simsvc: %s: queued at capacity: %w", s.cfg.Info.Name, ctx.Err())
		}
	}
	if lat > 0 {
		select {
		case <-ctx.Done():
			return service.Response{}, fmt.Errorf("simsvc: %s: %w", s.cfg.Info.Name, ctx.Err())
		case <-s.clk.After(lat):
		}
	}
	if fail {
		return service.Response{}, fmt.Errorf("simsvc: %s transient failure: %w", s.cfg.Info.Name, service.ErrUnavailable)
	}
	if s.cfg.Handler == nil {
		return service.Response{}, nil
	}
	return s.cfg.Handler(ctx, req)
}
