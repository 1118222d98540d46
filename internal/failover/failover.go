// Package failover implements the rich SDK's failure handling (paper §2.1):
// retrying unresponsive services a user-specified number of times, falling
// over to lower-ranked services with similar functionality until a
// responsive one is found (with a per-service retry count), and invoking
// multiple services redundantly, all of them at once.
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

// Jitter selects how the computed backoff wait is randomized before
// sleeping. Without jitter, concurrent callers that failed together retry
// in lockstep and re-spike the recovering service — the thundering herd
// the AWS architecture blog's "Exponential Backoff And Jitter" analysis
// quantifies. Jitter only perturbs the slept duration; the underlying
// exponential schedule (and therefore the un-jittered cap behavior) is
// unchanged.
type Jitter int

const (
	// NoJitter sleeps the exact computed backoff (the historical
	// behavior; callers retry in lockstep).
	NoJitter Jitter = iota
	// FullJitter sleeps uniform(0, wait] — the strategy with the best
	// contention spread in the AWS analysis, and the default for the SDK
	// core's retry stage.
	FullJitter
	// EqualJitter sleeps wait/2 + uniform(0, wait/2], keeping at least
	// half the deterministic delay while still decorrelating callers.
	EqualJitter
)

// jitterSrc is the package-level RNG for backoff jitter. It is shared —
// and mutex-guarded — precisely so that concurrent callers draw different
// values: a per-call seeded source would reproduce the lockstep the jitter
// exists to break. SeedJitter pins the stream for deterministic tests.
var (
	jitterMu  sync.Mutex
	jitterSrc = xrand.New(1)
)

// SeedJitter reseeds the shared jitter stream. Tests use it to make
// jittered backoff schedules reproducible run to run.
func SeedJitter(seed int64) {
	jitterMu.Lock()
	jitterSrc.Reseed(seed)
	jitterMu.Unlock()
}

// jitterWait maps the deterministic wait through the jitter mode. The
// result is always in (0, wait] so a positive backoff never degenerates to
// a zero-sleep hot loop.
func jitterWait(wait time.Duration, j Jitter) time.Duration {
	if wait <= 0 || j == NoJitter {
		return wait
	}
	jitterMu.Lock()
	u := jitterSrc.Float64()
	jitterMu.Unlock()
	switch j {
	case FullJitter:
		w := time.Duration(u * float64(wait))
		if w <= 0 {
			w = 1
		}
		return w
	case EqualJitter:
		half := wait / 2
		w := half + time.Duration(u*float64(wait-half))
		if w <= 0 {
			w = 1
		}
		return w
	default:
		return wait
	}
}

// RetryPolicy controls how a single service is retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first.
	// Values below 1 are treated as 1 (no retry).
	MaxAttempts int
	// Backoff is the wait before the first retry.
	Backoff time.Duration
	// BackoffFactor multiplies the wait after each retry; values below 1
	// are treated as 1 (constant backoff).
	BackoffFactor float64
	// MaxBackoff caps the wait; 0 means uncapped.
	MaxBackoff time.Duration
	// Jitter randomizes each slept backoff to decorrelate concurrent
	// retriers. The zero value (NoJitter) preserves the exact historical
	// schedule.
	Jitter Jitter
	// RetryOn decides whether an error is retryable. Nil means retry on
	// service.ErrUnavailable only — permanent errors (bad request,
	// quota) never retry by default.
	RetryOn func(error) bool
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) retryable(err error) bool {
	if p.RetryOn != nil {
		return p.RetryOn(err)
	}
	return errors.Is(err, service.ErrUnavailable)
}

// Invoke calls svc with retries per policy, sleeping the backoff on clk
// between attempts. It returns the response, the number of attempts made,
// and the final error. A nil clk uses the real clock. Context cancellation
// stops retrying immediately.
func Invoke(ctx context.Context, clk clock.Clock, svc service.Service, req service.Request, policy RetryPolicy) (service.Response, int, error) {
	return InvokeFunc(ctx, clk, func(ctx context.Context) (service.Response, error) {
		return svc.Invoke(ctx, req)
	}, policy)
}

// InvokeFunc is Invoke for a bare attempt function: it applies policy to
// fn, which performs one attempt. It exists for callers — such as the SDK
// core's RetryStage — whose single attempt is not a service.Service but a
// composed pipeline.
func InvokeFunc(ctx context.Context, clk clock.Clock, fn func(ctx context.Context) (service.Response, error), policy RetryPolicy) (service.Response, int, error) {
	if clk == nil {
		clk = clock.Real()
	}
	wait := policy.Backoff
	var lastErr error
	maxAttempts := policy.attempts()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		resp, err := fn(ctx)
		if err == nil {
			return resp, attempt, nil
		}
		lastErr = err
		if !policy.retryable(err) || attempt == maxAttempts {
			return service.Response{}, attempt, err
		}
		if wait > 0 {
			select {
			case <-ctx.Done():
				return service.Response{}, attempt, fmt.Errorf("failover: %w (after %w)", ctx.Err(), lastErr)
			case <-clk.After(jitterWait(wait, policy.Jitter)):
			}
			factor := policy.BackoffFactor
			if factor > 1 {
				wait = time.Duration(float64(wait) * factor)
				if policy.MaxBackoff > 0 && wait > policy.MaxBackoff {
					wait = policy.MaxBackoff
				}
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
		resp, n, err := Invoke(ctx, clk, step.Service, req, step.Policy)
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
// are returned in input order.
func InvokeAll(ctx context.Context, clk clock.Clock, svcs []service.Service, req service.Request) []Result {
	if clk == nil {
		clk = clock.Real()
	}
	results := make([]Result, len(svcs))
	var wg sync.WaitGroup
	for i, svc := range svcs {
		wg.Add(1)
		go func(i int, svc service.Service) {
			defer wg.Done()
			start := clk.Now()
			resp, err := svc.Invoke(ctx, req)
			results[i] = Result{
				Service:  svc.Info().Name,
				Response: resp,
				Err:      err,
				Latency:  clk.Since(start),
			}
		}(i, svc)
	}
	wg.Wait()
	return results
}
