package failover

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// failNTimes returns a service that fails transiently n times then
// succeeds, plus a counter of invocations.
func failNTimes(name string, n int) (service.Service, *int32) {
	var calls int32
	svc := service.Func{
		Meta: service.Info{Name: name, Category: "test"},
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			c := atomic.AddInt32(&calls, 1)
			if int(c) <= n {
				return service.Response{}, fmt.Errorf("try %d: %w", c, service.ErrUnavailable)
			}
			return service.Response{Body: []byte(name)}, nil
		},
	}
	return svc, &calls
}

// attempt is one invocation of svc, the attempt function InvokeFunc
// retries.
func attempt(svc service.Service) func(context.Context) (service.Response, error) {
	return func(ctx context.Context) (service.Response, error) { return svc.Invoke(ctx, service.Request{}) }
}

func alwaysFail(name string, err error) service.Service {
	return service.Func{
		Meta: service.Info{Name: name, Category: "test"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{}, fmt.Errorf("%s: %w", name, err)
		},
	}
}

func alwaysOK(name string) service.Service {
	return service.Func{
		Meta: service.Info{Name: name, Category: "test"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: []byte(name)}, nil
		},
	}
}

func TestInvokeRetriesTransientFailure(t *testing.T) {
	svc, calls := failNTimes("flaky", 2)
	resp, attempts, err := InvokeFunc(context.Background(), nil, attempt(svc), RetryPolicy{MaxAttempts: 5})
	if err != nil {
		t.Fatalf("InvokeFunc error = %v", err)
	}
	if attempts != 3 || *calls != 3 {
		t.Errorf("attempts = %d, calls = %d, want 3", attempts, *calls)
	}
	if string(resp.Body) != "flaky" {
		t.Errorf("Body = %q", resp.Body)
	}
}

func TestInvokeExhaustsAttempts(t *testing.T) {
	svc, calls := failNTimes("dead", 100)
	_, attempts, err := InvokeFunc(context.Background(), nil, attempt(svc), RetryPolicy{MaxAttempts: 3})
	if !errors.Is(err, service.ErrUnavailable) {
		t.Errorf("error = %v, want ErrUnavailable", err)
	}
	if attempts != 3 || *calls != 3 {
		t.Errorf("attempts = %d, calls = %d, want 3", attempts, *calls)
	}
}

func TestInvokeNoRetryOnPermanentError(t *testing.T) {
	svc := alwaysFail("bad", service.ErrBadRequest)
	_, attempts, err := InvokeFunc(context.Background(), nil, attempt(svc), RetryPolicy{MaxAttempts: 5})
	if !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("error = %v, want ErrBadRequest", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors never retry)", attempts)
	}
}

func TestInvokeZeroAttemptsClamped(t *testing.T) {
	svc := alwaysOK("ok")
	_, attempts, err := InvokeFunc(context.Background(), nil, attempt(svc), RetryPolicy{MaxAttempts: 0})
	if err != nil || attempts != 1 {
		t.Errorf("attempts = %d err = %v, want 1 nil", attempts, err)
	}
}

func TestInvokeContextCancelDuringBackoff(t *testing.T) {
	svc, _ := failNTimes("flaky", 100)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	policy := RetryPolicy{MaxAttempts: 100, Backoff: time.Hour}
	start := time.Now()
	_, _, err := InvokeFunc(ctx, nil, attempt(svc), policy)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not interrupt backoff")
	}
}

func TestChainFirstServiceWins(t *testing.T) {
	steps := []Step{
		{Service: alwaysOK("primary")},
		{Service: alwaysOK("secondary")},
	}
	resp, attempts, err := Chain(context.Background(), nil, steps, service.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "primary" {
		t.Errorf("Body = %q, want primary", resp.Body)
	}
	if len(attempts) != 1 || attempts[0].Service != "primary" {
		t.Errorf("attempts = %+v", attempts)
	}
}

func TestChainFallsOver(t *testing.T) {
	steps := []Step{
		{Service: alwaysFail("down", service.ErrUnavailable), Policy: RetryPolicy{MaxAttempts: 2}},
		{Service: alwaysOK("backup")},
	}
	resp, attempts, err := Chain(context.Background(), nil, steps, service.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "backup" {
		t.Errorf("Body = %q, want backup", resp.Body)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %+v, want 2 entries", attempts)
	}
	if attempts[0].Attempts != 2 || attempts[0].Err == nil {
		t.Errorf("first step = %+v, want 2 failed attempts", attempts[0])
	}
	if attempts[1].Err != nil {
		t.Errorf("second step = %+v, want success", attempts[1])
	}
}

func TestChainPerServiceRetryCounts(t *testing.T) {
	// Paper: retries per service "may be different for different
	// services".
	s1 := alwaysFail("s1", service.ErrUnavailable)
	s2 := alwaysFail("s2", service.ErrUnavailable)
	steps := []Step{
		{Service: s1, Policy: RetryPolicy{MaxAttempts: 3}},
		{Service: s2, Policy: RetryPolicy{MaxAttempts: 1}},
	}
	_, attempts, err := Chain(context.Background(), nil, steps, service.Request{})
	if err == nil {
		t.Fatal("expected chain failure")
	}
	if attempts[0].Attempts != 3 || attempts[1].Attempts != 1 {
		t.Errorf("attempts = %+v, want 3 then 1", attempts)
	}
}

func TestChainAllFailJoinsErrors(t *testing.T) {
	steps := []Step{
		{Service: alwaysFail("a", service.ErrUnavailable)},
		{Service: alwaysFail("b", service.ErrUnavailable)},
	}
	_, _, err := Chain(context.Background(), nil, steps, service.Request{})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, name := range []string{"a", "b"} {
		if !errors.Is(err, service.ErrUnavailable) {
			t.Errorf("joined error should be ErrUnavailable")
		}
		if !containsStr(err.Error(), name) {
			t.Errorf("error %q should mention %s", err, name)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	}()
}

func TestChainEmpty(t *testing.T) {
	if _, _, err := Chain(context.Background(), nil, nil, service.Request{}); err == nil {
		t.Error("empty chain should error")
	}
}

func TestInvokeAllResultsInOrder(t *testing.T) {
	svcs := []service.Service{
		alwaysOK("a"),
		alwaysFail("b", service.ErrUnavailable),
		alwaysOK("c"),
	}
	results := InvokeAll(context.Background(), nil, svcs, service.Request{})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Service != "a" || results[1].Service != "b" || results[2].Service != "c" {
		t.Errorf("results out of order: %+v", results)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("successes reported errors")
	}
	if results[1].Err == nil {
		t.Error("failure not reported")
	}
}

func TestInvokeAllPanicIsThatServicesError(t *testing.T) {
	boom := service.Func{
		Meta: service.Info{Name: "boom", Category: "test"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			panic("index out of range")
		},
	}
	results := InvokeAll(context.Background(), nil, []service.Service{alwaysOK("a"), boom, alwaysOK("c")}, service.Request{})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, i := range []int{0, 2} {
		if r := results[i]; r.Err != nil || string(r.Response.Body) != r.Service {
			t.Errorf("result %d = %+v, want %s's answer", i, r, r.Service)
		}
	}
	if r := results[1]; r.Service != "boom" || r.Err == nil || !strings.Contains(r.Err.Error(), "index out of range") {
		t.Errorf("panicking service's result = %+v, want the panic as its error", r)
	}
}

func TestInvokeAllParallel(t *testing.T) {
	// Parallel, not sequential, by a gate instead of a stopwatch: each of
	// the three services blocks until all three have started, so a
	// sequential InvokeAll never returns and the watchdog fails the test.
	const n = 3
	var started atomic.Int32
	allStarted := make(chan struct{})
	mk := func(name string) service.Service {
		return service.Func{
			Meta: service.Info{Name: name, Category: "t"},
			Fn: func(context.Context, service.Request) (service.Response, error) {
				if started.Add(1) == n {
					close(allStarted)
				}
				<-allStarted
				return service.Response{Body: []byte(name)}, nil
			},
		}
	}
	done := make(chan []Result)
	go func() {
		done <- InvokeAll(context.Background(), nil, []service.Service{mk("a"), mk("b"), mk("c")}, service.Request{})
	}()
	select {
	case results := <-done:
		for i, r := range results {
			if r.Err != nil || string(r.Response.Body) != string(rune('a'+i)) {
				t.Errorf("result %d = %+v", i, r)
			}
		}
	case <-time.After(time.Minute):
		t.Fatalf("InvokeAll did not return: %d of %d services started, so they ran one at a time", started.Load(), n)
	}
}

func TestInvokeFuncAppliesPolicyToBareFunction(t *testing.T) {
	var calls int
	fn := func(ctx context.Context) (service.Response, error) {
		calls++
		if calls < 3 {
			return service.Response{}, fmt.Errorf("try %d: %w", calls, service.ErrUnavailable)
		}
		return service.Response{Body: []byte("ok")}, nil
	}
	resp, attempts, err := InvokeFunc(context.Background(), nil, fn, RetryPolicy{MaxAttempts: 3})
	if err != nil || string(resp.Body) != "ok" {
		t.Fatalf("resp = %q, err = %v", resp.Body, err)
	}
	if attempts != 3 || calls != 3 {
		t.Errorf("attempts = %d, calls = %d, want 3 each", attempts, calls)
	}
}

func TestInvokeFuncPermanentErrorStopsImmediately(t *testing.T) {
	var calls int
	fn := func(ctx context.Context) (service.Response, error) {
		calls++
		return service.Response{}, fmt.Errorf("bad: %w", service.ErrBadRequest)
	}
	_, attempts, err := InvokeFunc(context.Background(), nil, fn, RetryPolicy{MaxAttempts: 5})
	if !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if attempts != 1 || calls != 1 {
		t.Errorf("attempts = %d, calls = %d, want 1 each", attempts, calls)
	}
}
