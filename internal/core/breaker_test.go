package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/service"
	"repro/internal/simsvc"
)

func transientErr() error { return fmt.Errorf("down: %w", service.ErrUnavailable) }

// TestBreakerStageEndToEnd drives the breaker through the client against a
// scripted simsvc outage: consecutive failures trip it, tripped calls are
// refused without reaching the service, and recovery closes it again.
func TestBreakerStageEndToEnd(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	svc := simsvc.New(simsvc.Config{
		Info:  service.Info{Name: "flaky", Category: "nlu"},
		Clock: clk,
	})
	c.mustRegister(svc)

	if _, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "ok"}); err != nil {
		t.Fatal(err)
	}

	svc.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "x"}); !errors.Is(err, service.ErrUnavailable) {
			t.Fatalf("invoke %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	before := svc.Invocations()
	_, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "x"})
	if !errors.Is(err, failover.ErrBreakerOpen) {
		t.Fatalf("err = %v, want failover.ErrBreakerOpen", err)
	}
	if errors.Is(err, service.ErrUnavailable) {
		t.Error("failover.ErrBreakerOpen must not match ErrUnavailable (retries would spin)")
	}
	if svc.Invocations() != before {
		t.Error("open breaker still reached the service")
	}

	states := c.BreakerStates()
	if len(states) != 1 || states[0].Service != "flaky" || states[0].State != "open" {
		t.Errorf("BreakerStates = %+v, want flaky open", states)
	}

	// Service recovers; after the cooldown one probe closes the breaker.
	svc.SetDown(false)
	clk.Advance(time.Minute)
	if _, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "probe"}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "after"}); err != nil {
		t.Fatalf("closed breaker refused call: %v", err)
	}
}

// TestBreakerRetriesWithinOneInvokeCountOnce checks the stage order: the
// breaker wraps outside retryStage, so an invocation that retries N times
// records one outcome, not N.
func TestBreakerRetriesWithinOneInvokeCountOnce(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 3},
	})
	svc := simsvc.New(simsvc.Config{
		Info:  service.Info{Name: "flaky", Category: "nlu"},
		Clock: clk,
		Down:  true,
	})
	c.mustRegister(svc)
	// One Invoke = three transport attempts = one breaker outcome.
	if _, err := c.Invoke(context.Background(), "flaky", service.Request{Text: "x"}); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if c.breakers.Tripped("flaky") {
		t.Fatal("breaker tripped after one invocation; retries must not count individually")
	}
	if got := svc.Invocations(); got != 3 {
		t.Fatalf("transport attempts = %d, want 3", got)
	}
}

func TestRankDemotesTrippedServices(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	a := simsvc.New(simsvc.Config{Info: service.Info{Name: "a", Category: "nlu"}, Clock: clk})
	b := simsvc.New(simsvc.Config{Info: service.Info{Name: "b", Category: "nlu"}, Clock: clk})
	c.mustRegister(a)
	c.mustRegister(b)

	ranked, err := c.Rank("nlu", service.Request{Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "a" {
		t.Fatalf("baseline rank = %v, want a first", ranked)
	}

	a.SetDown(true)
	if _, err := c.Invoke(context.Background(), "a", service.Request{Text: "x"}); err == nil {
		t.Fatal("want failure to trip a's breaker")
	}
	ranked, err = c.Rank("nlu", service.Request{Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "b" || ranked[1].Name != "a" {
		t.Errorf("rank after trip = [%s %s], want tripped service a demoted last", ranked[0].Name, ranked[1].Name)
	}

	// Category failover therefore tries the healthy service first.
	resp, attempts, err := c.InvokeCategory(context.Background(), "nlu", service.Request{Text: "y"})
	if err != nil {
		t.Fatal(err)
	}
	_ = resp
	if len(attempts) != 1 || attempts[0].Service != "b" {
		t.Errorf("attempts = %+v, want single attempt against b", attempts)
	}
}

// TestBreakerPanickingProbeReopens: a half-open probe whose service
// panics counts as a failed probe, so the breaker re-opens and a later
// probe gets through rather than the probe slot staying taken.
func TestBreakerPanickingProbeReopens(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	const (
		down = iota
		panics
		up
	)
	var mode atomic.Int32
	c.mustRegister(service.Func{
		Meta: service.Info{Name: "boom", Category: "t"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			switch mode.Load() {
			case down:
				return service.Response{}, transientErr()
			case panics:
				panic("probe")
			}
			return service.Response{Body: []byte("ok")}, nil
		},
	})
	invoke := func() error {
		res, err := c.InvokeAll(context.Background(), "t", service.Request{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Err
	}
	state := func() string { return c.BreakerStates()[0].State }

	if err := invoke(); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("first call err = %v, want ErrUnavailable", err)
	}
	if state() != "open" {
		t.Fatalf("breaker %s after a failure at threshold 1, want open", state())
	}
	mode.Store(panics)
	clk.Advance(time.Minute)
	if err := invoke(); err == nil || errors.Is(err, failover.ErrBreakerOpen) {
		t.Fatalf("probe err = %v, want the service's panic", err)
	}
	if state() != "open" {
		t.Fatalf("breaker %s after a panicking probe, want open", state())
	}
	mode.Store(up)
	clk.Advance(time.Minute)
	if err := invoke(); err != nil {
		t.Fatalf("later probe err = %v, want it let through", err)
	}
	if state() != "closed" {
		t.Errorf("breaker %s after a good probe, want closed", state())
	}
}
