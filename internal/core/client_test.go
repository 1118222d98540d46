package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failover"
	"repro/internal/rank"
	"repro/internal/service"
	"repro/internal/simsvc"
)

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func countingService(name, category string, fail *atomic.Bool) (service.Service, *int32) {
	var calls int32
	return service.Func{
		Meta: service.Info{Name: name, Category: category, CostPerCall: 1},
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			atomic.AddInt32(&calls, 1)
			if fail != nil && fail.Load() {
				return service.Response{}, fmt.Errorf("%s down: %w", name, service.ErrUnavailable)
			}
			return service.Response{Body: []byte(name + ":" + req.Text)}, nil
		},
	}, &calls
}

func TestInvokeUnknownService(t *testing.T) {
	c := newClient(t, Config{})
	_, err := c.Invoke(context.Background(), "nope", service.Request{})
	if !errors.Is(err, ErrUnknownService) {
		t.Errorf("error = %v, want ErrUnknownService", err)
	}
}

func TestInvokeRecordsMetrics(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("s1", "nlu", nil)
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "hello"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Monitor("s1").Snapshot()
	if snap.Count != 5 || snap.Failures != 0 {
		t.Errorf("snapshot = %+v, want 5 successes", snap)
	}
}

func TestInvokeCachingAvoidsRedundantCalls(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("cached", "nlu", nil)
	if err := c.Register(svc, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Op: "analyze", Text: "same text"}
	for i := 0; i < 10; i++ {
		resp, err := c.Invoke(context.Background(), "cached", req)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "cached:same text" {
			t.Errorf("Body = %q", resp.Body)
		}
	}
	if *calls != 1 {
		t.Errorf("service called %d times, want 1 (cache)", *calls)
	}
	if st := c.CacheStats(); st.Hits != 9 {
		t.Errorf("cache hits = %d, want 9", st.Hits)
	}
}

func TestInvokeNotCacheableByDefault(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("store", "storage", nil)
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Op: "put", Key: "k", Data: []byte("v")}
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "store", req); err != nil {
			t.Fatal(err)
		}
	}
	if *calls != 3 {
		t.Errorf("service called %d times, want 3 (no caching for storage)", *calls)
	}
}

func TestInvokeNoCacheOption(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("c", "nlu", nil)
	if err := c.Register(svc, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Text: "x"}
	if _, err := c.Invoke(context.Background(), "c", req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "c", req, NoCache()); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Errorf("calls = %d, want 2 (NoCache bypass)", *calls)
	}
}

func TestInvalidateCache(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("c", "nlu", nil)
	if err := c.Register(svc, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Text: "x"}
	if _, err := c.Invoke(context.Background(), "c", req); err != nil {
		t.Fatal(err)
	}
	c.InvalidateCache()
	if _, err := c.Invoke(context.Background(), "c", req); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Errorf("calls = %d, want 2 after invalidation", *calls)
	}
}

// An InvalidateCache that lands while a backend call is running wins: the
// call's response answers its caller but is not cached, so the next call
// reaches the backend again — through the per-service cache (Invoke) and
// the category cache (InvokeCategory) alike.
func TestInvalidateCacheDuringBackendCall(t *testing.T) {
	for _, viaCategory := range []bool{false, true} {
		c := newClient(t, Config{})
		var calls atomic.Int32
		var gate atomic.Pointer[chan struct{}]
		entered := make(chan struct{}, 1)
		svc := service.Func{
			Meta: service.Info{Name: "slow", Category: "nlu", CostPerCall: 1},
			Fn: func(context.Context, service.Request) (service.Response, error) {
				n := calls.Add(1)
				if g := gate.Load(); g != nil {
					entered <- struct{}{}
					<-*g
				}
				return service.Response{Body: []byte(fmt.Sprint("answer ", n))}, nil
			},
		}
		if err := c.Register(svc, WithCacheable()); err != nil {
			t.Fatal(err)
		}
		invoke := func() string {
			req := service.Request{Text: "x"}
			var resp service.Response
			var err error
			if viaCategory {
				resp, _, err = c.InvokeCategory(context.Background(), "nlu", req)
			} else {
				resp, err = c.Invoke(context.Background(), "slow", req)
			}
			if err != nil {
				t.Error(err)
			}
			return string(resp.Body)
		}

		release := make(chan struct{})
		gate.Store(&release)
		first := make(chan string, 1)
		go func() { first <- invoke() }()
		<-entered
		c.InvalidateCache()
		gate.Store(nil)
		close(release)
		if got := <-first; got != "answer 1" {
			t.Errorf("category %v: overtaken call answered %q, want %q", viaCategory, got, "answer 1")
		}
		if got := invoke(); got != "answer 2" {
			t.Errorf("category %v: call after the invalidation answered %q, want a fresh %q", viaCategory, got, "answer 2")
		}
		if got := invoke(); got != "answer 2" {
			t.Errorf("category %v: repeat call answered %q, want the cached %q", viaCategory, got, "answer 2")
		}
	}
}

func TestInvokeRetriesPerRegisteredPolicy(t *testing.T) {
	c := newClient(t, Config{})
	var n int32
	flaky := service.Func{
		Meta: service.Info{Name: "flaky", Category: "t"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			if atomic.AddInt32(&n, 1) < 3 {
				return service.Response{}, service.ErrUnavailable
			}
			return service.Response{Body: []byte("ok")}, nil
		},
	}
	if err := c.Register(flaky, WithRetry(failover.RetryPolicy{MaxAttempts: 5})); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Invoke(context.Background(), "flaky", service.Request{})
	if err != nil || string(resp.Body) != "ok" {
		t.Errorf("Invoke = (%q, %v)", resp.Body, err)
	}
	if n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
}

func TestInvokeQualityRecorded(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("q", "nlu", nil)
	err := c.Register(svc, WithQuality(func(_ service.Request, resp service.Response) float64 {
		return float64(len(resp.Body)) / 10
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "q", service.Request{Text: "12345678"}); err != nil {
		t.Fatal(err)
	}
	mean, n := c.Monitor("q").MeanQuality()
	if n != 1 || mean != 1.0 { // "q:12345678" = 10 chars
		t.Errorf("quality = (%v, %d), want (1.0, 1)", mean, n)
	}
}

func TestClientQuotaBlocksWithoutInvoking(t *testing.T) {
	c := newClient(t, Config{})
	svc, calls := countingService("lim", "nlu", nil)
	q := service.NewQuota(2, time.Hour, nil)
	if err := c.Register(svc, WithClientQuota(q)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Invoke(context.Background(), "lim", service.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Invoke(context.Background(), "lim", service.Request{})
	if !errors.Is(err, ErrClientQuota) {
		t.Errorf("error = %v, want ErrClientQuota", err)
	}
	if *calls != 2 {
		t.Errorf("service called %d times, want 2 (third blocked client-side)", *calls)
	}
}

func TestInvokeAsyncWithCallback(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("a", "nlu", nil)
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	f := c.InvokeAsync(context.Background(), "a", service.Request{Text: "hi"})
	got := make(chan string, 1)
	f.Listen(func(resp service.Response, err error) {
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(resp.Body)
	})
	select {
	case v := <-got:
		if v != "a:hi" {
			t.Errorf("callback got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never ran")
	}
}

func TestSelectPrefersFasterService(t *testing.T) {
	c := newClient(t, Config{Scorer: rank.Weighted{W: rank.Weights{Alpha: 1}}})
	fast := simsvc.New(simsvc.Config{
		Info:    service.Info{Name: "fast", Category: "storage"},
		Latency: simsvc.Constant{D: time.Millisecond},
	})
	slow := simsvc.New(simsvc.Config{
		Info:    service.Info{Name: "slow", Category: "storage"},
		Latency: simsvc.Constant{D: 30 * time.Millisecond},
	})
	if err := c.Register(fast); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(slow); err != nil {
		t.Fatal(err)
	}
	// Train the monitors.
	for i := 0; i < 10; i++ {
		if _, err := c.Invoke(context.Background(), "fast", service.Request{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Invoke(context.Background(), "slow", service.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	name, err := c.Select("storage", service.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if name != "fast" {
		t.Errorf("Select = %s, want fast", name)
	}
}

func TestInvokeCategoryFailsOver(t *testing.T) {
	c := newClient(t, Config{})
	var downFlag atomic.Bool
	downFlag.Store(true)
	primary, _ := countingService("primary", "search", &downFlag)
	backup, _ := countingService("backup", "search", nil)
	// Lower cost makes primary rank first with default weights.
	if err := c.Register(primary, WithRetry(failover.RetryPolicy{MaxAttempts: 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(backup); err != nil {
		t.Fatal(err)
	}
	resp, attempts, err := c.InvokeCategory(context.Background(), "search", service.Request{Text: "q"})
	if err != nil {
		t.Fatalf("InvokeCategory error = %v (attempts %+v)", err, attempts)
	}
	if string(resp.Body) != "backup:q" {
		t.Errorf("Body = %q, want backup:q", resp.Body)
	}
	if len(attempts) != 2 {
		t.Errorf("attempts = %+v, want 2 services tried", attempts)
	}
}

func TestInvokeCategoryUnknown(t *testing.T) {
	c := newClient(t, Config{})
	_, _, err := c.InvokeCategory(context.Background(), "ghost", service.Request{})
	if !errors.Is(err, ErrUnknownCategory) {
		t.Errorf("error = %v, want ErrUnknownCategory", err)
	}
}

func TestInvokeAllRedundant(t *testing.T) {
	c := newClient(t, Config{})
	a, aCalls := countingService("a", "kv", nil)
	b, bCalls := countingService("b", "kv", nil)
	if err := c.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b); err != nil {
		t.Fatal(err)
	}
	results, err := c.InvokeAll(context.Background(), "kv", service.Request{Op: "put", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if *aCalls != 1 || *bCalls != 1 {
		t.Errorf("calls = (%d, %d), want both invoked", *aCalls, *bCalls)
	}
	// Both recorded in monitoring.
	if c.Monitor("a").Count() != 1 || c.Monitor("b").Count() != 1 {
		t.Error("redundant invocations not monitored")
	}
}

func TestPredictLatencyFromHistory(t *testing.T) {
	c := newClient(t, Config{})
	svc := simsvc.New(simsvc.Config{
		Info:    service.Info{Name: "sz", Category: "storage"},
		Latency: simsvc.SizeLinear{Base: time.Millisecond, PerKB: time.Millisecond},
	})
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	for kb := 1; kb <= 256; kb *= 2 {
		req := service.Request{Op: "put", Data: make([]byte, kb*1024)}
		if _, err := c.Invoke(context.Background(), "sz", req); err != nil {
			t.Fatal(err)
		}
	}
	// Predict for 64KB: ~65ms from the linear model.
	d, err := c.PredictLatency("sz", []float64{64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d < 40*time.Millisecond || d > 120*time.Millisecond {
		t.Errorf("PredictLatency = %v, want ~65ms", d)
	}
}

func TestPredictLatencyUnknownService(t *testing.T) {
	c := newClient(t, Config{})
	if _, err := c.PredictLatency("nope", nil); !errors.Is(err, ErrUnknownService) {
		t.Errorf("error = %v, want ErrUnknownService", err)
	}
}

func TestEstimatesIncludeCostAndQuality(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("e", "nlu", nil)
	err := c.Register(svc, WithQuality(func(service.Request, service.Response) float64 { return 0.75 }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "e", service.Request{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	ests, err := c.Estimates("nlu", service.Request{Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 1 || ests[0].Cost != 1 || ests[0].Quality != 0.75 {
		t.Errorf("estimates = %+v", ests)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("dup", "x", nil)
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(svc); err == nil {
		t.Error("duplicate Register should fail")
	}
}
