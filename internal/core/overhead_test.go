package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/raceflag"
	"repro/internal/service"
	"repro/internal/trace"
)

// newFacadeCacheHit builds the HTTP façade over a cache-primed client
// (traced when tr is not nil) and returns a closure performing one
// complete in-process POST /v1/invoke round trip: JSON decode, the
// middleware chain's cache-hit path, JSON encode.
func newFacadeCacheHit(tb testing.TB, tr *trace.Tracer) func() error {
	tb.Helper()
	api := NewAPI(newBenchClient(tb, Config{Tracer: tr}))
	payload, err := json.Marshal(map[string]any{
		"service": "bench",
		"request": service.Request{Op: "analyze", Text: benchDoc},
	})
	if err != nil {
		tb.Fatal(err)
	}
	do := func() error {
		req := httptest.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("invoke: HTTP %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	if err := do(); err != nil { // prime the response cache
		tb.Fatal(err)
	}
	return do
}

// BenchmarkTraceOverhead exposes the tracing tax at both granularities.
// The façade pair is what TestTraceOverheadFacade guards; the client pair
// shows the raw per-invocation span cost against a ~600ns baseline, where
// even two timestamp reads register as whole percents — which is why the
// enforced budget is end-to-end, not on the bare client. The "disabled"
// variant registers a tracer with sample rate 0: the client omits the
// traceStage entirely, so it must match "untraced" within noise.
func BenchmarkTraceOverhead(b *testing.B) {
	req := service.Request{Op: "analyze", Text: benchDoc}
	clientBench := func(tr *trace.Tracer) func(*testing.B) {
		return func(b *testing.B) {
			client := newBenchClient(b, Config{Tracer: tr})
			ctx := context.Background()
			if _, err := client.Invoke(ctx, "bench", req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(ctx, "bench", req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	facadeBench := func(tr *trace.Tracer) func(*testing.B) {
		return func(b *testing.B) {
			do := newFacadeCacheHit(b, tr)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := do(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	tr := trace.New()
	defer tr.Close()
	off := trace.New(trace.WithSampleRate(0))
	defer off.Close()
	b.Run("client/untraced", clientBench(nil))
	b.Run("client/disabled", clientBench(off))
	b.Run("client/traced", clientBench(tr))
	b.Run("facade/untraced", facadeBench(nil))
	b.Run("facade/traced", facadeBench(tr))
}

// TestTraceOverheadFacade is the observability overhead guard: with 100%
// sampling, tracing may add at most 5% to a cache-hit invocation measured
// end-to-end through the HTTP façade — the smallest unit of work a caller
// of the SDK-as-a-service can buy. Alternating-order batches, each
// path's best batch and one re-measure at triple resolution cancel
// machine drift; GC stays enabled here (each round trip allocates
// request/recorder/JSON state on both sides equally) with forced
// collections between batches. TestTraceFacadeAllocs counts what the
// same pair allocates.
func TestTraceOverheadFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("timing guard skipped under the race detector: instrumentation distorts relative costs")
	}
	tr := trace.New()
	t.Cleanup(tr.Close)
	traced := newFacadeCacheHit(t, tr)
	plain := newFacadeCacheHit(t, nil)
	batch := func(do func() error) time.Duration {
		const iters = 400
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := do(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for i := 0; i < 3; i++ { // settle caches and branch predictors
		batch(traced)
		batch(plain)
	}
	measure := func(rounds int) (tBest, pBest time.Duration) {
		tBest, pBest = 1<<62, 1<<62
		for r := 0; r < rounds; r++ {
			if r%8 == 0 {
				runtime.GC()
			}
			var tb, pb time.Duration
			if r%2 == 0 {
				tb, pb = batch(traced), batch(plain)
			} else {
				pb, tb = batch(plain), batch(traced)
			}
			tBest, pBest = min(tBest, tb), min(pBest, pb)
		}
		return tBest, pBest
	}
	tBest, pBest := measure(60)
	if float64(tBest-pBest)/float64(pBest) > 0.05 {
		tBest, pBest = measure(180) // could be interference; re-measure before failing
	}
	overhead := float64(tBest-pBest) / float64(pBest)
	perOp := func(d time.Duration) time.Duration { return d / 400 }
	t.Logf("facade cache hit: traced %v/op, untraced %v/op, overhead %.2f%%",
		perOp(tBest), perOp(pBest), overhead*100)
	if overhead > 0.05 {
		t.Errorf("tracing at 100%% sampling costs %.2f%% end-to-end, budget is 5%%", overhead*100)
	}
}

// TestTraceFacadeAllocs pins what tracing at 100% sampling adds to a
// façade cache hit in allocations, the way TestSpanPathAllocs pins the
// span path: once the tracer's ring is full and finished records
// recycle, a traced request allocates exactly what an untraced one does,
// and a tracer sampling nothing adds nothing either. Until then each
// trace costs one record.
func TestTraceFacadeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop records; allocation counts are not the product's")
	}
	tr := trace.New()
	t.Cleanup(tr.Close)
	off := trace.New(trace.WithSampleRate(0))
	t.Cleanup(off.Close)
	allocs := func(do func() error) float64 {
		for range 2 * trace.DefaultCapacity { // fill the ring so finished records recycle
			if err := do(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if err := do(); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(newFacadeCacheHit(t, nil))
	traced := allocs(newFacadeCacheHit(t, tr))
	unsampled := allocs(newFacadeCacheHit(t, off))
	t.Logf("façade cache hit: %v allocations untraced, %v traced, %v unsampled", plain, traced, unsampled)
	if traced != plain {
		t.Errorf("a traced façade cache hit allocates %v times, an untraced one %v: tracing adds %v",
			traced, plain, traced-plain)
	}
	if unsampled != plain {
		t.Errorf("an unsampled façade cache hit allocates %v times, an untraced one %v", unsampled, plain)
	}
}
