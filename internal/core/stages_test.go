package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/service"
)

// fixed returns an Invoker with a canned outcome, counting invocations.
func fixed(resp service.Response, err error, calls *int) Invoker {
	return func(ctx context.Context, call *Call) (service.Response, error) {
		*calls++
		return resp, err
	}
}

// cacheableReg builds the minimal registration a CacheStage test call
// needs: a name, the cacheable flag, and the precomputed key prefix that
// Register would normally derive.
func cacheableReg(name string) *registration {
	return &registration{name: name, cacheable: true, cachePrefix: "svc:" + name + ":"}
}

func TestQuotaStageRefusesWithoutInvoking(t *testing.T) {
	var calls int
	inv := Compose(fixed(service.Response{Body: []byte("ok")}, nil, &calls), QuotaStage())
	call := &Call{reg: &registration{name: "q", quota: service.NewQuota(1, time.Hour, nil)}}
	if _, err := inv(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	_, err := inv(context.Background(), call)
	if !errors.Is(err, ErrClientQuota) {
		t.Errorf("err = %v, want ErrClientQuota", err)
	}
	if calls != 1 {
		t.Errorf("inner calls = %d, want 1 (quota must refuse before invoking)", calls)
	}
}

func TestQuotaStagePassThroughWithoutQuota(t *testing.T) {
	var calls int
	inv := Compose(fixed(service.Response{}, nil, &calls), QuotaStage())
	for i := 0; i < 3; i++ {
		if _, err := inv(context.Background(), &Call{reg: &registration{name: "q"}}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Errorf("inner calls = %d, want 3", calls)
	}
}

func TestCacheStageServesHitsAndRespectsNoCache(t *testing.T) {
	mem := cache.NewSharded[service.Response](16)
	flight := cache.NewGroup[service.Response]()
	var calls int
	inv := Compose(fixed(service.Response{Body: []byte("v")}, nil, &calls), CacheStage(mem, flight))
	req := service.Request{Op: "x", Text: "t"}

	for i := 0; i < 5; i++ {
		if _, err := inv(context.Background(), &Call{reg: cacheableReg("s"), Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Errorf("inner calls = %d, want 1 (cached)", calls)
	}
	if _, err := inv(context.Background(), &Call{reg: cacheableReg("s"), Req: req, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("inner calls = %d, want 2 (NoCache bypasses)", calls)
	}
	if _, err := inv(context.Background(), &Call{reg: &registration{name: "s"}, Req: req}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("inner calls = %d, want 3 (not cacheable bypasses)", calls)
	}
}

func TestCacheStageKeysAreServiceScoped(t *testing.T) {
	mem := cache.NewSharded[service.Response](16)
	flight := cache.NewGroup[service.Response]()
	var calls int
	inv := Compose(fixed(service.Response{}, nil, &calls), CacheStage(mem, flight))
	req := service.Request{Op: "x", Text: "t"}
	for _, name := range []string{"a", "b"} {
		if _, err := inv(context.Background(), &Call{reg: cacheableReg(name), Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("inner calls = %d, want 2 (distinct per-service keys)", calls)
	}
}

func TestRetryStageRecordsAttemptsAndBackoffElapsed(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	var calls int
	flaky := Invoker(func(ctx context.Context, call *Call) (service.Response, error) {
		calls++
		if calls < 3 {
			return service.Response{}, fmt.Errorf("flaky: %w", service.ErrUnavailable)
		}
		return service.Response{Body: []byte("ok")}, nil
	})
	inv := Compose(flaky, RetryStage(clk))
	call := &Call{reg: &registration{name: "s", policy: failover.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}}}

	done := make(chan error, 1)
	go func() {
		_, err := inv(context.Background(), call)
		done <- err
	}()
	// Two backoff sleeps of 10ms separate the three attempts.
	for i := 0; i < 2; i++ {
		for clk.Pending() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if call.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", call.Attempts)
	}
	if call.Elapsed < 20*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 20ms (must include backoff)", call.Elapsed)
	}
}

func TestMonitorStageRecordsOutcomeAndQuality(t *testing.T) {
	reg := metrics.NewRegistry()
	var calls int
	okInv := Compose(fixed(service.Response{Body: []byte("ok")}, nil, &calls), MonitorStage(reg))
	call := &Call{
		reg: &registration{
			name:    "m",
			quality: func(service.Request, service.Response) float64 { return 0.75 },
		},
		Elapsed:  5 * time.Millisecond, // as RetryStage would have recorded
		Attempts: 3,
	}
	if _, err := okInv(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	snap := reg.Monitor("m").Snapshot()
	if snap.Count != 1 || snap.Failures != 0 {
		t.Errorf("snapshot = %+v, want one success", snap)
	}
	if snap.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (three attempts)", snap.Retries)
	}
	if snap.MeanQuality != 0.75 || snap.QualityCount != 1 {
		t.Errorf("quality = %v/%d, want 0.75/1", snap.MeanQuality, snap.QualityCount)
	}

	failInv := Compose(fixed(service.Response{}, fmt.Errorf("down: %w", service.ErrUnavailable), &calls), MonitorStage(reg))
	if _, err := failInv(context.Background(), &Call{reg: &registration{name: "m"}, Attempts: 1}); err == nil {
		t.Fatal("want error")
	}
	snap = reg.Monitor("m").Snapshot()
	if snap.Count != 2 || snap.Failures != 1 {
		t.Errorf("snapshot = %+v, want one failure recorded", snap)
	}
	if snap.QualityCount != 1 {
		t.Errorf("QualityCount = %d, want 1 (failures are not rated)", snap.QualityCount)
	}
}

func TestPredictStageObservesSuccessesOnly(t *testing.T) {
	set := NewPredictorSet(predict.Config{MinObservations: 1})
	var calls int
	params := func(service.Request) []float64 { return []float64{42} }

	failInv := Compose(fixed(service.Response{}, fmt.Errorf("down: %w", service.ErrUnavailable), &calls), PredictStage(set))
	_, _ = failInv(context.Background(), &Call{reg: &registration{name: "p", params: params}})
	if _, err := set.Predict("p", []float64{42}, nil); !errors.Is(err, predict.ErrNoData) {
		t.Errorf("err = %v, want ErrNoData (failures must not be observed)", err)
	}

	okInv := Compose(fixed(service.Response{}, nil, &calls), PredictStage(set))
	call := &Call{reg: &registration{name: "p", params: params}, Elapsed: 7 * time.Millisecond}
	if _, err := okInv(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	// The stage is the only recorder of (latency parameters, latency): with
	// one observation the prediction at its parameters is its latency.
	d, err := set.Predict("p", []float64{42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7*time.Millisecond {
		t.Errorf("prediction = %v, want the observed 7ms", d)
	}
}

// hangingInvoker blocks until the context is cancelled, like an
// unresponsive remote service.
func hangingInvoker() Invoker {
	return func(ctx context.Context, call *Call) (service.Response, error) {
		<-ctx.Done()
		return service.Response{}, fmt.Errorf("hung: %w: %w", service.ErrUnavailable, ctx.Err())
	}
}

func TestDeadlineStageBoundsSlowCalls(t *testing.T) {
	predictFn := func(name string, params []float64) (time.Duration, error) {
		return 10 * time.Millisecond, nil
	}
	inv := Compose(hangingInvoker(), DeadlineStage(predictFn, DeadlineConfig{Factor: 2, Floor: time.Millisecond}))
	start := time.Now()
	_, err := inv(context.Background(), &Call{reg: &registration{name: "slow"}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("call took %v, deadline did not bound it", elapsed)
	}
}

func TestDeadlineStagePassesThroughWithoutPrediction(t *testing.T) {
	predictFn := func(name string, params []float64) (time.Duration, error) {
		return 0, predict.ErrNoData
	}
	var calls int
	inv := Compose(fixed(service.Response{Body: []byte("ok")}, nil, &calls), DeadlineStage(predictFn, DeadlineConfig{Factor: 2}))
	resp, err := inv(context.Background(), &Call{reg: &registration{name: "s"}})
	if err != nil || string(resp.Body) != "ok" {
		t.Fatalf("resp = %q, err = %v", resp.Body, err)
	}
}

func TestDeadlineStageDoesNotMaskCallerCancellation(t *testing.T) {
	predictFn := func(name string, params []float64) (time.Duration, error) {
		return time.Hour, nil // stage deadline far away
	}
	inv := Compose(hangingInvoker(), DeadlineStage(predictFn, DeadlineConfig{Factor: 1}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := inv(ctx, &Call{reg: &registration{name: "s"}})
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v; caller cancellation must not be reported as the stage's deadline", err)
	}
}

func TestDeadlineStageHonorsFloorAndCap(t *testing.T) {
	predictFn := func(name string, params []float64) (time.Duration, error) {
		return time.Hour, nil
	}
	// Cap of 15ms bounds the hour-long prediction.
	inv := Compose(hangingInvoker(), DeadlineStage(predictFn, DeadlineConfig{Factor: 3, Cap: 15 * time.Millisecond}))
	start := time.Now()
	_, err := inv(context.Background(), &Call{reg: &registration{name: "s"}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("call took %v, cap did not bound it", elapsed)
	}
}

// TestClientDeadlineEndToEnd drives the deadline through the whole client:
// a service trained fast turns unresponsive, and the predicted-latency
// deadline converts the hang into ErrDeadline instead of blocking.
func TestClientDeadlineEndToEnd(t *testing.T) {
	c := newClient(t, Config{
		Deadline: DeadlineConfig{Factor: 2, Floor: 30 * time.Millisecond},
		Predict:  predict.Config{MinObservations: 2},
	})
	var hang atomic.Bool
	svc := service.Func{
		Meta: service.Info{Name: "moody", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			if hang.Load() {
				<-ctx.Done()
				return service.Response{}, fmt.Errorf("hung: %w: %w", service.ErrUnavailable, ctx.Err())
			}
			time.Sleep(2 * time.Millisecond)
			return service.Response{Body: []byte("ok")}, nil
		},
	}
	c.MustRegister(svc, WithRetry(failover.RetryPolicy{MaxAttempts: 1}))
	for i := 0; i < 4; i++ {
		if _, err := c.Invoke(context.Background(), "moody", service.Request{Text: fmt.Sprintf("warm %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	hang.Store(true)
	start := time.Now()
	_, err := c.Invoke(context.Background(), "moody", service.Request{Text: "now hang"})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hang lasted %v; deadline should have cut it near the 30ms floor", elapsed)
	}
}

func TestPredictorSetNeverDropsObservations(t *testing.T) {
	set := NewPredictorSet(predict.Config{MinObservations: 4})
	// Interleave Predict (which used to allocate a throwaway predictor)
	// with Observe; every observation must land in the same predictor.
	for i := 0; i < 4; i++ {
		_, _ = set.Predict("s", []float64{1}, nil)
		set.Observe("s", []float64{float64(i + 1)}, time.Duration(i+1)*time.Millisecond)
	}
	if _, err := set.Predict("s", []float64{2}, nil); err != nil {
		t.Errorf("Predict after 4 observations: %v, want a fitted model", err)
	}
}

func TestPredictorSetConcurrentAccess(t *testing.T) {
	set := NewPredictorSet(predict.Config{MinObservations: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g%2)
			for i := 0; i < 50; i++ {
				set.Observe(name, []float64{float64(i)}, time.Millisecond)
				_, _ = set.Predict(name, []float64{float64(i)}, []float64{1, 2})
			}
		}(g)
	}
	wg.Wait()
}
