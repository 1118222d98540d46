// Package failover implements the rich SDK's failure handling (paper §2.1):
// retrying unresponsive services a user-specified number of times, falling
// over to lower-ranked services with similar functionality until a
// responsive one is found (with a per-service retry count), invoking
// multiple services redundantly, all of them at once, and circuit
// breakers that stop calling a service (or store node) after consecutive
// transient failures. The SDK core's chain and the cloud store's client
// share these, so retry and breaker speak one vocabulary in both.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
	"repro/internal/xrand"
)

// jitterSrc is the package-level RNG for backoff jitter. It is shared —
// and mutex-guarded — precisely so that concurrent callers draw different
// values: a per-call seeded source would reproduce the lockstep the jitter
// exists to break. seedJitter pins the stream for deterministic tests.
var (
	jitterMu  sync.Mutex
	jitterSrc = xrand.New(1)
)

// seedJitter reseeds the shared jitter stream. Tests use it to make
// jittered backoff schedules reproducible run to run.
func seedJitter(seed int64) {
	jitterMu.Lock()
	jitterSrc.Reseed(seed)
	jitterMu.Unlock()
}

// jitterWait is full jitter: a uniform draw from (0, wait]. Without it,
// concurrent callers that failed together retry in lockstep and re-spike
// the recovering service — the thundering herd the AWS architecture
// blog's "Exponential Backoff And Jitter" analysis quantifies; full jitter
// has the best contention spread there. The result is never zero, so a
// positive backoff never degenerates to a zero-sleep hot loop.
func jitterWait(wait time.Duration) time.Duration {
	jitterMu.Lock()
	u := jitterSrc.Float64()
	jitterMu.Unlock()
	return max(time.Duration(u*float64(wait)), 1)
}

// RetryPolicy controls how a single service is retried: only on
// service.ErrUnavailable — permanent errors (bad request, quota) never
// retry — with a fully jittered wait between attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first.
	// Values below 1 are treated as 1 (no retry).
	MaxAttempts int
	// Backoff bounds the wait before each retry: each wait is drawn
	// uniformly from (0, Backoff] (jitterWait). Zero retries at once.
	Backoff time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// InvokeFunc applies policy to fn, which performs one attempt, sleeping
// the backoff on clk between attempts. It returns the response, the number
// of attempts made, and the final error. A nil clk uses the real clock.
// Context cancellation stops retrying immediately.
func InvokeFunc(ctx context.Context, clk clock.Clock, fn func(ctx context.Context) (service.Response, error), policy RetryPolicy) (service.Response, int, error) {
	if clk == nil {
		clk = clock.Real()
	}
	var lastErr error
	maxAttempts := policy.attempts()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		resp, err := fn(ctx)
		if err == nil {
			return resp, attempt, nil
		}
		lastErr = err
		if !errors.Is(err, service.ErrUnavailable) || attempt == maxAttempts {
			return service.Response{}, attempt, err
		}
		if policy.Backoff > 0 {
			select {
			case <-ctx.Done():
				return service.Response{}, attempt, fmt.Errorf("failover: %w (after %w)", ctx.Err(), lastErr)
			case <-clk.After(jitterWait(policy.Backoff)):
			}
		} else if ctx.Err() != nil {
			return service.Response{}, attempt, fmt.Errorf("failover: %w (after %w)", ctx.Err(), lastErr)
		}
	}
	return service.Response{}, maxAttempts, lastErr
}

// Step is one entry in a failover chain: a service plus its retry policy.
// The paper notes the number of retries "may be different for different
// services".
type Step struct {
	Service service.Service
	Policy  RetryPolicy
}

// Attempt records the outcome of trying one service in a chain.
type Attempt struct {
	Service  string
	Attempts int
	Err      error // nil if this service produced the returned response
}

// Chain tries services in rank order until one responds (paper §2.1: "start
// with higher ranked services and continue with lower ranked services until
// a responsive service is found"). It returns the first success, the
// per-service attempt log, and — if every service fails — an error joining
// all failures.
func Chain(ctx context.Context, clk clock.Clock, steps []Step, req service.Request) (service.Response, []Attempt, error) {
	if len(steps) == 0 {
		return service.Response{}, nil, errors.New("failover: empty chain")
	}
	attempts := make([]Attempt, 0, len(steps))
	var errs []error
	for _, step := range steps {
		resp, n, err := InvokeFunc(ctx, clk, func(ctx context.Context) (service.Response, error) {
			return step.Service.Invoke(ctx, req)
		}, step.Policy)
		name := step.Service.Info().Name
		attempts = append(attempts, Attempt{Service: name, Attempts: n, Err: err})
		if err == nil {
			return resp, attempts, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", name, err))
		if ctx.Err() != nil {
			break
		}
	}
	return service.Response{}, attempts, fmt.Errorf("failover: all services failed: %w", errors.Join(errs...))
}

// Result is the outcome of one service's invocation in a redundant call.
type Result struct {
	Service  string
	Response service.Response
	Err      error
	Latency  time.Duration
}

// InvokeAll invokes every service in parallel with the same request and
// waits for all of them — the paper's redundancy case, for example storing
// the same data in several cloud databases, or sending a document to
// several NLU services to compare and combine their output. The results
// are returned in input order. A service that panics gets the panic as
// its Result.Err; the other services' results are unaffected.
func InvokeAll(ctx context.Context, clk clock.Clock, svcs []service.Service, req service.Request) []Result {
	if clk == nil {
		clk = clock.Real()
	}
	results := make([]Result, len(svcs))
	var wg sync.WaitGroup
	for i, svc := range svcs {
		wg.Add(1)
		go func(res *Result, svc service.Service) {
			defer wg.Done()
			res.Service = svc.Info().Name
			start := clk.Now()
			defer func() {
				if p := recover(); p != nil {
					res.Response, res.Err = service.Response{}, fmt.Errorf("failover: %s panicked: %v", res.Service, p)
				}
				res.Latency = clk.Since(start)
			}()
			res.Response, res.Err = svc.Invoke(ctx, req)
		}(&results[i], svc)
	}
	wg.Wait()
	return results
}
