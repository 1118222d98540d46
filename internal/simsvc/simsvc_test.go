package simsvc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
	"repro/internal/xrand"
)

// setLatencyModel replaces the latency model at runtime (a chaos latency
// regime change). A nil model means zero latency.
func (s *Service) setLatencyModel(m LatencyModel) {
	s.mu.Lock()
	s.latency = m
	s.mu.Unlock()
}

func TestConstantLatencyModel(t *testing.T) {
	m := Constant{D: 25 * time.Millisecond}
	if got := m.Sample(service.Request{}, xrand.New(1)); got != 25*time.Millisecond {
		t.Errorf("Sample = %v, want 25ms", got)
	}
}

func TestLognormalLatencyModel(t *testing.T) {
	m := Lognormal{Median: 40 * time.Millisecond, Sigma: 0.3}
	src := xrand.New(1)
	below := 0
	n := 5000
	for i := 0; i < n; i++ {
		d := m.Sample(service.Request{}, src)
		if d <= 0 {
			t.Fatalf("non-positive latency %v", d)
		}
		if d < 40*time.Millisecond {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("median check: %v below, want ~0.5", frac)
	}
}

func TestSizeLinearModel(t *testing.T) {
	m := SizeLinear{Base: 10 * time.Millisecond, PerKB: time.Millisecond}
	small := service.Request{Data: make([]byte, 1024)}
	large := service.Request{Data: make([]byte, 1024*100)}
	src := xrand.New(1)
	ds := m.Sample(small, src)
	dl := m.Sample(large, src)
	if ds != 11*time.Millisecond {
		t.Errorf("small = %v, want 11ms", ds)
	}
	if dl != 110*time.Millisecond {
		t.Errorf("large = %v, want 110ms", dl)
	}
}

func TestSizeLinearJitterVariance(t *testing.T) {
	m := SizeLinear{Base: 10 * time.Millisecond, PerKB: 0, Jitter: 0.3}
	src := xrand.New(1)
	a := m.Sample(service.Request{}, src)
	b := m.Sample(service.Request{}, src)
	if a == b {
		t.Error("jittered samples identical")
	}
}

func TestQuotaEnforcement(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	q := service.NewQuota(3, time.Hour, v)
	for i := 0; i < 3; i++ {
		if !q.Take() {
			t.Fatalf("Take %d failed within quota", i)
		}
	}
	if q.Take() {
		t.Error("Take beyond quota succeeded")
	}
	if q.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", q.Remaining())
	}
	// New period resets the quota.
	v.Advance(2 * time.Hour)
	if q.Remaining() != 3 {
		t.Errorf("Remaining after period = %d, want 3", q.Remaining())
	}
	if !q.Take() {
		t.Error("Take in new period failed")
	}
}

func TestServiceHappyPath(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	svc := New(Config{
		Info:    service.Info{Name: "sim", Category: "test"},
		Latency: Constant{D: 0},
		Clock:   v,
		Handler: func(_ context.Context, req service.Request) (service.Response, error) {
			return service.Response{Body: []byte("ok:" + req.Text)}, nil
		},
	})
	resp, err := svc.Invoke(context.Background(), service.Request{Text: "x"})
	if err != nil || string(resp.Body) != "ok:x" {
		t.Errorf("Invoke = (%q, %v)", resp.Body, err)
	}
	if svc.Invocations() != 1 {
		t.Errorf("Invocations = %d, want 1", svc.Invocations())
	}
}

func TestServiceLatencyOnVirtualClock(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	svc := New(Config{
		Info:    service.Info{Name: "sim", Category: "test"},
		Latency: Constant{D: 50 * time.Millisecond},
		Clock:   v,
	})
	done := make(chan error, 1)
	go func() {
		_, err := svc.Invoke(context.Background(), service.Request{})
		done <- err
	}()
	// The invocation must be blocked until virtual time advances.
	select {
	case <-done:
		t.Fatal("invocation completed before latency elapsed")
	case <-time.After(20 * time.Millisecond):
	}
	for v.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(50 * time.Millisecond)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Invoke error = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("invocation did not complete after Advance")
	}
}

func TestServiceFailureInjectionRate(t *testing.T) {
	svc := New(Config{
		Info:     service.Info{Name: "flaky", Category: "test"},
		FailRate: 0.3,
		Seed:     7,
	})
	fails := 0
	n := 2000
	for i := 0; i < n; i++ {
		if _, err := svc.Invoke(context.Background(), service.Request{}); err != nil {
			if !errors.Is(err, service.ErrUnavailable) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails++
		}
	}
	frac := float64(fails) / float64(n)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("failure rate = %v, want ~0.3", frac)
	}
}

func TestServiceDeterministicUnderSeed(t *testing.T) {
	mk := func() *Service {
		return New(Config{Info: service.Info{Name: "d", Category: "t"}, FailRate: 0.5, Seed: 42})
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		_, errA := a.Invoke(context.Background(), service.Request{})
		_, errB := b.Invoke(context.Background(), service.Request{})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("invocation %d diverged: %v vs %v", i, errA, errB)
		}
	}
}

func TestServiceDownToggle(t *testing.T) {
	svc := New(Config{Info: service.Info{Name: "s", Category: "t"}})
	if _, err := svc.Invoke(context.Background(), service.Request{}); err != nil {
		t.Fatalf("up service failed: %v", err)
	}
	svc.SetDown(true)
	if _, err := svc.Invoke(context.Background(), service.Request{}); !errors.Is(err, service.ErrUnavailable) {
		t.Errorf("down service error = %v, want ErrUnavailable", err)
	}
	svc.SetDown(false)
	if _, err := svc.Invoke(context.Background(), service.Request{}); err != nil {
		t.Errorf("restored service failed: %v", err)
	}
}

func TestServiceQuotaExceeded(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	svc := New(Config{
		Info:  service.Info{Name: "q", Category: "t"},
		Quota: service.NewQuota(2, time.Hour, v),
		Clock: v,
	})
	for i := 0; i < 2; i++ {
		if _, err := svc.Invoke(context.Background(), service.Request{}); err != nil {
			t.Fatalf("within quota: %v", err)
		}
	}
	if _, err := svc.Invoke(context.Background(), service.Request{}); !errors.Is(err, service.ErrQuotaExceeded) {
		t.Errorf("error = %v, want ErrQuotaExceeded", err)
	}
}

func TestServiceContextCancelDuringLatency(t *testing.T) {
	svc := New(Config{
		Info:    service.Info{Name: "slow", Category: "t"},
		Latency: Constant{D: time.Hour},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := svc.Invoke(ctx, service.Request{})
	if err == nil {
		t.Fatal("expected context error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want DeadlineExceeded", err)
	}
}

func TestServiceNilHandlerEmptyResponse(t *testing.T) {
	svc := New(Config{Info: service.Info{Name: "empty", Category: "t"}})
	resp, err := svc.Invoke(context.Background(), service.Request{})
	if err != nil || resp.Body != nil {
		t.Errorf("Invoke = (%v, %v), want empty response", resp, err)
	}
}

func TestServiceRuntimeChaosSetters(t *testing.T) {
	s := New(Config{Info: service.Info{Name: "c"}, Seed: 7})
	ctx := context.Background()

	// Baseline: no latency, no failures.
	if _, err := s.Invoke(ctx, service.Request{}); err != nil {
		t.Fatalf("baseline Invoke: %v", err)
	}

	// A scripted 5xx burst: every call fails until the rate is cleared.
	s.SetFailRate(1)
	if _, err := s.Invoke(ctx, service.Request{}); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("under failrate 1 want ErrUnavailable, got %v", err)
	}
	s.SetFailRate(0)
	if _, err := s.Invoke(ctx, service.Request{}); err != nil {
		t.Fatalf("after clearing failrate: %v", err)
	}

	// A latency regime change plus an additive spike, observed on a
	// virtual clock via context cancellation: with 5ms model + 10ms
	// extra, a 1ms-deadline call must be cut short by its context.
	clk := clock.NewVirtual(time.Unix(0, 0))
	s2 := New(Config{Info: service.Info{Name: "c2"}, Seed: 7, Clock: clk})
	s2.setLatencyModel(Constant{D: 5 * time.Millisecond})
	s2.SetExtraLatency(10 * time.Millisecond)
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := s2.Invoke(cctx, service.Request{})
		done <- err
	}()
	for clk.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("spiked call: want context.Canceled, got %v", err)
	}
	// Clearing both knobs restores the instant path.
	s2.setLatencyModel(nil)
	s2.SetExtraLatency(0)
	if _, err := s2.Invoke(ctx, service.Request{}); err != nil {
		t.Fatalf("after clearing latency knobs: %v", err)
	}
}

func TestServiceCapacityQueueing(t *testing.T) {
	// Capacity 1 with a real 20ms service time: two concurrent calls must
	// serialize, so the pair takes >= ~2x the single-call latency.
	s := New(Config{
		Info:     service.Info{Name: "cap"},
		Latency:  Constant{D: 20 * time.Millisecond},
		Capacity: 1,
		Seed:     1,
	})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Invoke(context.Background(), service.Request{}); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Errorf("2 calls through capacity 1 finished in %v, want >= ~40ms (queueing)", el)
	}
}

func TestServiceCapacityQueueRespectsContext(t *testing.T) {
	// One call holds the only slot (hung on a virtual clock); a second
	// call queued for the slot must abort when its context is cancelled.
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := New(Config{
		Info:     service.Info{Name: "cap"},
		Latency:  Constant{D: time.Hour},
		Capacity: 1,
		Seed:     1,
		Clock:    clk,
	})
	holder := make(chan error, 1)
	go func() {
		_, err := s.Invoke(context.Background(), service.Request{})
		holder <- err
	}()
	for clk.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.Invoke(ctx, service.Request{})
		queued <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the second call reach the queue
	cancel()
	err := <-queued
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued call: want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "queued at capacity") {
		t.Errorf("queued call error %q should mention the capacity queue", err)
	}
	clk.Advance(time.Hour)
	if err := <-holder; err != nil {
		t.Fatalf("holder: %v", err)
	}
}
