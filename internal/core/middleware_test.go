package core

import (
	"context"
	"errors"
	"strings"
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
	var order []string
	c := newClient(t, Config{Middleware: []Middleware{countMW(&seen), tagMW(&order, "a"), tagMW(&order, "b")}})
	s1, _ := countingService("s1", "nlu", nil)
	s2, _ := countingService("s2", "nlu", nil)
	c.mustRegister(s1)
	c.mustRegister(s2)
	for _, name := range []string{"s1", "s2", "s1"} {
		if _, err := c.Invoke(context.Background(), name, service.Request{Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if seen.Load() != 3 {
		t.Errorf("client-wide middleware saw %d calls, want 3", seen.Load())
	}
	// Config.Middleware runs in order, first element outermost.
	want := strings.Repeat("a> b> <b <a ", 3)
	if got := strings.Join(order, " ") + " "; got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestMiddlewareObservesCacheHits(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{Middleware: []Middleware{countMW(&seen)}})
	svc, calls := countingService("cached", "nlu", nil)
	c.mustRegister(svc, WithCacheable())
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
	canned := Middleware(func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			return service.Response{Body: []byte("canned")}, nil
		}
	})
	c := newClient(t, Config{Middleware: []Middleware{canned}})
	svc, calls := countingService("s1", "nlu", nil)
	c.mustRegister(svc)
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
	boom := errors.New("middleware rejected")
	reject := Middleware(func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			return service.Response{}, boom
		}
	})
	c := newClient(t, Config{Middleware: []Middleware{reject}})
	svc, calls := countingService("s1", "nlu", nil)
	c.mustRegister(svc)
	_, err := c.Invoke(context.Background(), "s1", service.Request{Text: "x"})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the middleware's error", err)
	}
	if atomic.LoadInt32(calls) != 0 {
		t.Errorf("service invoked %d times, want 0", *calls)
	}
}

func TestLatencyParamsComputedLazilyAndOnce(t *testing.T) {
	// Outermost, so it sees each call after every stage has run.
	var computed atomic.Int32
	after := Middleware(func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			resp, err := next(ctx, call)
			if call.params != nil {
				computed.Add(1)
			}
			return resp, err
		}
	})
	c := newClient(t, Config{Middleware: []Middleware{after}})
	svc, _ := countingService("cached", "nlu", nil)
	c.mustRegister(svc, WithCacheable())
	req := service.Request{Op: "analyze", Text: "same"}
	for i := 0; i < 10; i++ {
		if _, err := c.Invoke(context.Background(), "cached", req); err != nil {
			t.Fatal(err)
		}
	}
	// Only the single cache miss reaches the observation stages; the nine
	// cache hits must not pay for the parameters.
	if computed.Load() != 1 {
		t.Errorf("params computed on %d calls, want 1 (cache-hit fast path must skip it)", computed.Load())
	}
}

// TestInvokeCategoryAppliesInvokeMiddleware checks that category
// invocation runs each attempted service's whole chain, client-wide
// middleware included.
func TestInvokeCategoryAppliesInvokeMiddleware(t *testing.T) {
	var seen atomic.Int32
	c := newClient(t, Config{Middleware: []Middleware{countMW(&seen)}})
	s1, _ := countingService("s1", "nlu", nil)
	c.mustRegister(s1)
	_, _, err := c.InvokeCategory(context.Background(), "nlu", service.Request{Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 1 {
		t.Errorf("invoke middleware saw %d attempts, want 1", seen.Load())
	}
}
