package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failover"
	"repro/internal/rank"
	"repro/internal/service"
)

func TestClientConcurrentInvocations(t *testing.T) {
	c := newClient(t, Config{})
	var calls int32
	svc := service.Func{
		Meta: service.Info{Name: "conc", Category: "t"},
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			atomic.AddInt32(&calls, 1)
			return service.Response{Body: []byte(req.Text)}, nil
		},
	}
	if err := c.Register(svc, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// 25 distinct request texts: heavy cache sharing across
				// goroutines.
				req := service.Request{Op: "analyze", Text: fmt.Sprintf("doc-%d", i%25)}
				if _, err := c.Invoke(context.Background(), "conc", req); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Single-flight + cache: exactly one backend call per distinct text.
	if got := atomic.LoadInt32(&calls); got != 25 {
		t.Errorf("backend calls = %d, want 25", got)
	}
	if got := c.Monitor("conc").Count(); got != 25 {
		t.Errorf("monitored calls = %d, want 25", got)
	}
}

func TestCategoryCacheServesAcrossServices(t *testing.T) {
	c := newClient(t, Config{})
	a, aCalls := countingService("a", "dup", nil)
	b, bCalls := countingService("b", "dup", nil)
	if err := c.Register(a, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Op: "analyze", Text: "same"}
	for i := 0; i < 5; i++ {
		if _, _, err := c.InvokeCategory(context.Background(), "dup", req); err != nil {
			t.Fatal(err)
		}
	}
	if *aCalls+*bCalls != 1 {
		t.Errorf("backend calls = %d, want 1 (category cache)", *aCalls+*bCalls)
	}
}

func TestCategoryCacheHitSkipsRanking(t *testing.T) {
	var scored int
	c := newClient(t, Config{Scorer: rank.Custom(func(e rank.Estimate, _ []rank.Estimate) float64 {
		scored++
		return e.Cost
	})})
	a, _ := countingService("a", "hit", nil)
	b, _ := countingService("b", "hit", nil)
	for _, svc := range []service.Service{a, b} {
		if err := c.Register(svc, WithCacheable()); err != nil {
			t.Fatal(err)
		}
	}
	req := service.Request{Op: "analyze", Text: "same"}
	invoke := func(opts ...InvokeOption) {
		t.Helper()
		if _, _, err := c.InvokeCategory(context.Background(), "hit", req, opts...); err != nil {
			t.Fatal(err)
		}
	}
	invoke()
	afterMiss := scored
	if afterMiss == 0 {
		t.Fatal("a category cache miss must rank")
	}
	invoke()
	if scored != afterMiss {
		t.Errorf("scorer ran %d more times on a category cache hit, want 0", scored-afterMiss)
	}
	invoke(NoCache())
	if scored == afterMiss {
		t.Error("NoCache must rank: it bypasses the category cache")
	}
}

// TestRankAllocsFlatInHistory is the deterministic form of the benchmark's
// rank_call_us_first vs _last: a Rank that follows a fresh observation of
// every service (so each predictor must refit) allocates the same whether
// 100 or 50 000 invocations came before, so Equation-1 ranking does not get
// dearer with uptime. Only Rank is counted: the recording side allocates
// ring slots until its windows fill.
func TestRankAllocsFlatInHistory(t *testing.T) {
	c := newClient(t, Config{})
	names := []string{"r1", "r2", "r3"}
	for _, n := range names {
		svc, _ := countingService(n, "flat", nil)
		if err := c.Register(svc); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]service.Request, 64)
	for i := range reqs {
		reqs[i] = service.Request{Op: "analyze", Text: strings.Repeat("x", 1+7*i)}
	}
	ctx := context.Background()
	recorded := 0
	// step records one invocation of each service, ranks, and (when asked)
	// returns how many objects the ranking allocated.
	step := func(count bool) uint64 {
		req := reqs[recorded%len(reqs)]
		for _, n := range names {
			if _, err := c.Invoke(ctx, n, req); err != nil {
				t.Fatal(err)
			}
			recorded++
		}
		var before, after runtime.MemStats
		if count {
			runtime.ReadMemStats(&before)
		}
		_, err := c.Rank("flat", req)
		if count {
			runtime.ReadMemStats(&after)
		}
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	// Mallocs is process-wide, so a stray goroutine can only add to a
	// sample: the minimum over many samples is Rank's own count.
	measureAt := func(history int) uint64 {
		for recorded < history {
			step(false)
		}
		least := step(true)
		for i := 1; i < 50; i++ {
			least = min(least, step(true))
		}
		return least
	}
	early, late := measureAt(100), measureAt(50000)
	if early != late || early == 0 {
		t.Errorf("Rank after a fresh observation: %d allocs after 100 recorded invocations, %d after 50000; want equal and non-zero", early, late)
	}
}

func TestInvokeCategoryNoCacheOption(t *testing.T) {
	c := newClient(t, Config{})
	a, aCalls := countingService("a", "nc", nil)
	if err := c.Register(a, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Text: "x"}
	for i := 0; i < 3; i++ {
		if _, _, err := c.InvokeCategory(context.Background(), "nc", req, NoCache()); err != nil {
			t.Fatal(err)
		}
	}
	if *aCalls != 3 {
		t.Errorf("calls = %d, want 3 with NoCache", *aCalls)
	}
}

func TestEstimatesWithNoHistoryUseCostOnly(t *testing.T) {
	c := newClient(t, Config{Scorer: rank.Weighted{W: rank.Weights{Beta: 1}}})
	exp := service.Func{
		Meta: service.Info{Name: "expensive", Category: "s", CostPerCall: 10},
		Fn:   func(context.Context, service.Request) (service.Response, error) { return service.Response{}, nil },
	}
	chp := service.Func{
		Meta: service.Info{Name: "cheap", Category: "s", CostPerCall: 1},
		Fn:   func(context.Context, service.Request) (service.Response, error) { return service.Response{}, nil },
	}
	if err := c.Register(exp); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(chp); err != nil {
		t.Fatal(err)
	}
	// Never invoked: latency predictions are unavailable, so estimates
	// carry 0 response time and selection falls back to cost.
	name, err := c.Select("s", service.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if name != "cheap" {
		t.Errorf("Select = %s, want cheap", name)
	}
}

func TestMonitorRecordsFailuresFromInvoke(t *testing.T) {
	c := newClient(t, Config{})
	dead := service.Func{
		Meta: service.Info{Name: "dead", Category: "t"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{}, service.ErrUnavailable
		},
	}
	if err := c.Register(dead, WithRetry(failoverPolicy(1))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, _ = c.Invoke(context.Background(), "dead", service.Request{})
	}
	snap := c.Monitor("dead").Snapshot()
	if snap.Count != 4 || snap.Failures != 4 || snap.Availability != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestCloseStopsAsync(t *testing.T) {
	c, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := countingService("s", "t", nil)
	if err := c.Register(svc); err != nil {
		t.Fatal(err)
	}
	c.Close()
	fut := c.InvokeAsync(context.Background(), "s", service.Request{})
	if _, err := fut.Get(); err == nil {
		t.Error("async after Close should fail")
	}
}

func TestInvokeContextCancellation(t *testing.T) {
	c := newClient(t, Config{})
	slow := service.Func{
		Meta: service.Info{Name: "slow", Category: "t"},
		Fn: func(ctx context.Context, _ service.Request) (service.Response, error) {
			select {
			case <-ctx.Done():
				return service.Response{}, ctx.Err()
			case <-time.After(10 * time.Second):
				return service.Response{}, nil
			}
		},
	}
	if err := c.Register(slow); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Invoke(ctx, "slow", service.Request{}); err == nil {
		t.Fatal("expected cancellation")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation not prompt")
	}
}

// failoverPolicy is shorthand for a retry policy with n attempts.
func failoverPolicy(n int) failover.RetryPolicy {
	return failover.RetryPolicy{MaxAttempts: n}
}
