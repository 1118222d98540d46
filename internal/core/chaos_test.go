package core

// Chaos-mode interaction tests: the breaker, retry, and deadline stages
// exercised together against a simulated service whose failure and latency
// knobs are rescripted mid-run, the way the loadgen chaos controller does
// it. These pin the storm lifecycle: the breaker opens while the storm
// rages, half-open probes burn against a still-failing service without
// letting traffic through, and the first post-storm probe closes the
// circuit again.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/service"
	"repro/internal/simsvc"
)

func breakerStateOf(t *testing.T, c *Client, name string) string {
	t.Helper()
	for _, st := range c.BreakerStates() {
		if st.Service == name {
			return st.State
		}
	}
	t.Fatalf("no breaker state for %s", name)
	return ""
}

func TestBreakerOpensDuringFailStormAndRecoversAfter(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	svc := simsvc.New(simsvc.Config{
		Info:  service.Info{Name: "stormy", Category: "cog"},
		Seed:  1,
		Clock: clk,
	})
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Calm before the storm: calls succeed, breaker closed.
	if _, err := c.Invoke(ctx, "stormy", service.Request{}); err != nil {
		t.Fatalf("pre-storm Invoke: %v", err)
	}
	if st := breakerStateOf(t, c, "stormy"); st != "closed" {
		t.Fatalf("pre-storm breaker = %s, want closed", st)
	}

	// The storm hits: every call fails with 5xx.
	svc.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(ctx, "stormy", service.Request{}); !errors.Is(err, service.ErrUnavailable) {
			t.Fatalf("storm call %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if st := breakerStateOf(t, c, "stormy"); st != "open" {
		t.Fatalf("after %d consecutive failures breaker = %s, want open", 3, st)
	}

	// Open breaker: calls fail fast with failover.ErrBreakerOpen and never
	// reach the service.
	before := svc.Invocations()
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(ctx, "stormy", service.Request{}); !errors.Is(err, failover.ErrBreakerOpen) {
			t.Fatalf("open-breaker call: err = %v, want failover.ErrBreakerOpen", err)
		}
	}
	if got := svc.Invocations(); got != before {
		t.Fatalf("open breaker let %d calls through to the service", got-before)
	}

	// Cooldown elapses mid-storm: exactly one half-open probe reaches the
	// still-down service, fails, and re-opens the circuit.
	clk.Advance(100 * time.Millisecond)
	if _, err := c.Invoke(ctx, "stormy", service.Request{}); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("probe err = %v, want ErrUnavailable (probe reached the service)", err)
	}
	if got := svc.Invocations(); got != before+1 {
		t.Fatalf("half-open admitted %d calls, want exactly 1 probe", got-before)
	}
	if _, err := c.Invoke(ctx, "stormy", service.Request{}); !errors.Is(err, failover.ErrBreakerOpen) {
		t.Fatalf("post-probe call err = %v, want failover.ErrBreakerOpen (circuit re-opened)", err)
	}

	// The storm ends; after the next cooldown the probe succeeds and the
	// circuit closes for good.
	svc.SetDown(false)
	clk.Advance(100 * time.Millisecond)
	if _, err := c.Invoke(ctx, "stormy", service.Request{}); err != nil {
		t.Fatalf("post-storm probe: %v", err)
	}
	if st := breakerStateOf(t, c, "stormy"); st != "closed" {
		t.Fatalf("post-storm breaker = %s, want closed", st)
	}
	if _, err := c.Invoke(ctx, "stormy", service.Request{}); err != nil {
		t.Fatalf("post-recovery Invoke: %v", err)
	}
}

func TestRetryExhaustionCountsOnceTowardBreaker(t *testing.T) {
	// A retried invocation makes several attempts but the breaker — which
	// sits outside the retry stage — records one outcome per invocation,
	// so the threshold counts invocations, not attempts.
	clk := clock.NewVirtual(time.Unix(0, 0))
	svc := simsvc.New(simsvc.Config{
		Info:  service.Info{Name: "retrystorm", Category: "cog"},
		Seed:  1,
		Clock: clk,
	})
	svc.SetFailRate(1)
	c := newClient(t, Config{
		Clock:        clk,
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 2},
	})
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two invocations = four attempts; threshold 3 must NOT trip yet.
	for i := 0; i < 2; i++ {
		if _, err := c.Invoke(ctx, "retrystorm", service.Request{}); !errors.Is(err, service.ErrUnavailable) {
			t.Fatalf("storm call err = %v", err)
		}
	}
	if got := svc.Invocations(); got != 4 {
		t.Fatalf("attempts reaching the service = %d, want 4 (2 invocations x 2 attempts)", got)
	}
	if st := breakerStateOf(t, c, "retrystorm"); st != "closed" {
		t.Fatalf("after 2 failed invocations (4 attempts) breaker = %s, want closed — attempts must not count individually", st)
	}
	// The third failed invocation trips it.
	if _, err := c.Invoke(ctx, "retrystorm", service.Request{}); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("third call err = %v", err)
	}
	if st := breakerStateOf(t, c, "retrystorm"); st != "open" {
		t.Fatalf("after 3 failed invocations breaker = %s, want open", st)
	}
}

func TestLatencyStormTripsBreakerViaDeadline(t *testing.T) {
	// A latency spike (not an outright failure) must still open the
	// breaker: the deadline stage converts too-slow into
	// failover.ErrDeadline, which the breaker counts as transient. Real
	// clock — deadlineStage's timeout runs on context machinery.
	svc := simsvc.New(simsvc.Config{
		Info:    service.Info{Name: "spiky", Category: "cog"},
		Latency: simsvc.Constant{D: 2 * time.Millisecond},
		Seed:    1,
	})
	c := newClient(t, Config{
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Deadline:     DeadlineConfig{Factor: 4, Floor: 5 * time.Millisecond, Cap: 20 * time.Millisecond},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the predictor: successful ~2ms calls teach it the service's
	// normal latency, arming the deadline at ~max(5ms, 8ms-capped).
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(ctx, "spiky", service.Request{}); err != nil {
			t.Fatalf("warmup call %d: %v", i, err)
		}
	}

	// The spike: +200ms on every call blows any deadline <= 20ms.
	svc.SetExtraLatency(200 * time.Millisecond)
	for i := 0; i < 3; i++ {
		_, err := c.Invoke(ctx, "spiky", service.Request{})
		if !errors.Is(err, failover.ErrDeadline) {
			t.Fatalf("spiked call %d: err = %v, want failover.ErrDeadline", i, err)
		}
	}
	if st := breakerStateOf(t, c, "spiky"); st != "open" {
		t.Fatalf("after 3 deadline blowouts breaker = %s, want open", st)
	}
	if _, err := c.Invoke(ctx, "spiky", service.Request{}); !errors.Is(err, failover.ErrBreakerOpen) {
		t.Fatalf("err = %v, want failover.ErrBreakerOpen (latency storm tripped the circuit)", err)
	}

	// Spike clears; after cooldown the probe sees normal latency and the
	// circuit closes.
	svc.SetExtraLatency(0)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Invoke(ctx, "spiky", service.Request{}); err != nil {
		t.Fatalf("post-spike probe: %v", err)
	}
	if st := breakerStateOf(t, c, "spiky"); st != "closed" {
		t.Fatalf("post-spike breaker = %s, want closed", st)
	}
}
