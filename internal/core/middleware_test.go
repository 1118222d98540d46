package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

// tagMW returns a middleware that appends tag to order around the call.
func tagMW(order *[]string, tag string) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			*order = append(*order, tag+">")
			resp, err := next(ctx, call)
			*order = append(*order, "<"+tag)
			return resp, err
		}
	}
}

func TestComposeOrder(t *testing.T) {
	var order []string
	base := Invoker(func(ctx context.Context, call *Call) (service.Response, error) {
		order = append(order, "base")
		return service.Response{}, nil
	})
	inv := compose(base, tagMW(&order, "a"), tagMW(&order, "b"))
	if _, err := inv(context.Background(), &Call{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a>", "b>", "base", "<b", "<a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestComposeEmptyIsBase(t *testing.T) {
	called := false
	base := Invoker(func(ctx context.Context, call *Call) (service.Response, error) {
		called = true
		return service.Response{}, nil
	})
	if _, err := compose(base)(context.Background(), &Call{}); err != nil || !called {
		t.Fatalf("called = %v, err = %v", called, err)
	}
}

func countMW(n *atomic.Int32) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			n.Add(1)
			return next(ctx, call)
		}
	}
}

func TestClientWideMiddlewareSeesEveryService(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{Middleware: []Middleware{countMW(&seen)}})
	s1, _ := countingService("s1", "nlu", nil)
	s2, _ := countingService("s2", "nlu", nil)
	c.MustRegister(s1)
	c.MustRegister(s2)
	for _, name := range []string{"s1", "s2", "s1"} {
		if _, err := c.Invoke(context.Background(), name, service.Request{Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if seen.Load() != 3 {
		t.Errorf("client-wide middleware saw %d calls, want 3", seen.Load())
	}
}

func TestRegistrationMiddlewareIsPerService(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{})
	s1, _ := countingService("s1", "nlu", nil)
	s2, _ := countingService("s2", "nlu", nil)
	c.MustRegister(s1, withMiddleware(countMW(&seen)))
	c.MustRegister(s2)
	for i := 0; i < 2; i++ {
		if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Invoke(context.Background(), "s2", service.Request{Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if seen.Load() != 2 {
		t.Errorf("registration middleware saw %d calls, want 2 (s1 only)", seen.Load())
	}
}

func TestInvokeMiddlewareIsPerInvocation(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{})
	svc, _ := countingService("s1", "nlu", nil)
	c.MustRegister(svc)
	if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"},
		withInvokeMiddleware(countMW(&seen))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 1 {
		t.Errorf("invoke middleware saw %d calls, want 1", seen.Load())
	}
}

func TestMiddlewareObservesCacheHits(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{})
	svc, calls := countingService("cached", "nlu", nil)
	c.MustRegister(svc, WithCacheable(), withMiddleware(countMW(&seen)))
	req := service.Request{Op: "analyze", Text: "same"}
	for i := 0; i < 10; i++ {
		if _, err := c.Invoke(context.Background(), "cached", req); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Errorf("backend calls = %d, want 1 (cache)", got)
	}
	if seen.Load() != 10 {
		t.Errorf("middleware saw %d calls, want all 10 including cache hits", seen.Load())
	}
}

func TestMiddlewareShortCircuitSkipsEverything(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("s1", "nlu", nil)
	canned := Middleware(func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			return service.Response{Body: []byte("canned")}, nil
		}
	})
	c.MustRegister(svc, withMiddleware(canned))
	resp, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"})
	if err != nil || string(resp.Body) != "canned" {
		t.Fatalf("resp = %q, err = %v", resp.Body, err)
	}
	if atomic.LoadInt32(calls) != 0 {
		t.Errorf("service invoked %d times, want 0 (short-circuited)", *calls)
	}
	if c.Monitor("s1").Count() != 0 {
		t.Errorf("monitor recorded %d invocations, want 0", c.Monitor("s1").Count())
	}
}

func TestMiddlewareErrorPropagates(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("s1", "nlu", nil)
	boom := errors.New("middleware rejected")
	reject := Middleware(func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			return service.Response{}, boom
		}
	})
	c.MustRegister(svc)
	_, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"}, withInvokeMiddleware(reject))
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the middleware's error", err)
	}
	if atomic.LoadInt32(calls) != 0 {
		t.Errorf("service invoked %d times, want 0", *calls)
	}
}

func TestLatencyParamsComputedLazilyAndOnce(t *testing.T) {
	var extracted atomic.Int32
	c := newClient(t, Config{})
	svc, _ := countingService("cached", "nlu", nil)
	c.MustRegister(svc, WithCacheable(), withLatencyParams(func(req service.Request) []float64 {
		extracted.Add(1)
		return []float64{float64(req.ArgSize())}
	}))
	req := service.Request{Op: "analyze", Text: "same"}
	for i := 0; i < 10; i++ {
		if _, err := c.Invoke(context.Background(), "cached", req); err != nil {
			t.Fatal(err)
		}
	}
	// Only the single cache miss reaches the observation stages; the nine
	// cache hits must not pay for the user's extractor.
	if extracted.Load() != 1 {
		t.Errorf("params extracted %d times, want 1 (cache-hit fast path must skip it)", extracted.Load())
	}
}

func TestInvokeCategoryAppliesInvokeMiddleware(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{})
	s1, _ := countingService("s1", "nlu", nil)
	c.MustRegister(s1)
	_, _, err := c.InvokeCategory(context.Background(), "nlu", service.Request{Text: "x"},
		withInvokeMiddleware(countMW(&seen)))
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 1 {
		t.Errorf("invoke middleware saw %d attempts, want 1", seen.Load())
	}
}
