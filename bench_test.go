package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failover"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/raceflag"
	"repro/internal/rdf"
	"repro/internal/rdf/rdfref"
	"repro/internal/service"
	"repro/internal/trace"
)

// Each benchmark regenerates one experiment table from DESIGN.md's
// per-experiment index (E1-E15 reproduce paper claims; E16-E22 measure
// this repo's own engines; A1-A4 are design ablations). Benchmarks run
// the experiment at a reduced scale per
// iteration; run cmd/benchmark for full-scale tables.
//
//	go test -bench=. -benchmem
//	go run ./cmd/benchmark            # full tables
//	go run ./cmd/benchmark -run E5    # one experiment

const benchScale = experiments.Scale(0.05)

// benchDoc is a representative analysis payload (the quickstart document).
// The cache key hashes the whole request, so the fast path's fixed costs
// are judged against a realistic document rather than a degenerate
// few-byte string.
const benchDoc = "Acme Corporation reported excellent quarterly earnings, and analysts " +
	"in Germany praised the remarkable growth of the technology market."

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	entry, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := entry.Run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE2Ranking(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE4Async(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5SizePredict(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6Consensus(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7Persist(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8Inference(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Codec(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10LocalRemote(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11OfflineSync(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Convert(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Disambig(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14Redundancy(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Vision(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16Pipeline(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17RDFScaling(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18SearchScaling(b *testing.B)  { benchExperiment(b, "E18") }
func BenchmarkE19NLUIngest(b *testing.B)      { benchExperiment(b, "E19") }
func BenchmarkE20MetricsCost(b *testing.B)    { benchExperiment(b, "E20") }
func BenchmarkE21Chaos(b *testing.B)          { benchExperiment(b, "E21") }
func BenchmarkE22CloudStore(b *testing.B)     { benchExperiment(b, "E22") }
func BenchmarkA1CacheAblation(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkA2ScoreAblation(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkA3PredictAblation(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4ChainAblation(b *testing.B)   { benchExperiment(b, "A4") }

// Sanity: every registry entry has a benchmark above.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E11": true, "E12": true, "E13": true, "E14": true, "E15": true,
		"E16": true, "E17": true, "E18": true, "E19": true, "E20": true,
		"E21": true, "E22": true,
		"A1": true, "A2": true, "A3": true, "A4": true,
	}
	for _, e := range experiments.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark", e.ID)
		}
	}
	if len(experiments.All()) != len(covered) {
		t.Errorf("registry (%d) and benchmark coverage (%d) diverged",
			len(experiments.All()), len(covered))
	}
}

// Example of running a single experiment programmatically.
func Example_findExperiment() {
	entry, err := experiments.Find("E2")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(entry.ID, "-", entry.Title)
	// Output: E2 - score-based ranking
}

// BenchmarkE1Caching regenerates the E1 table and compares the middleware
// pipeline's cache-hit fast path ("pipeline") against a hand-inlined
// replica of the pre-pipeline monolithic Invoke ("seed-inline"). The two
// sub-benchmarks bound the cost of the chain's indirection on the hottest
// path in the SDK; TestCacheHitAllocsChainEqualsInline (internal/core)
// guards what it allocates.
func BenchmarkE1Caching(b *testing.B) {
	b.Run("experiment", func(b *testing.B) { benchExperiment(b, "E1") })
	req := service.Request{Op: "analyze", Text: benchDoc}
	b.Run("cache-hit/pipeline", func(b *testing.B) {
		invoke := newPipelineCacheHit(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := invoke(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit/seed-inline", func(b *testing.B) {
		invoke := newSeedInlineCacheHit(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := invoke(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3Failover regenerates the E3 table and compares a full
// cache-miss invocation through the pipeline (retry + monitor + predictor
// stages) against the equivalent hand-inlined seed path.
func BenchmarkE3Failover(b *testing.B) {
	b.Run("experiment", func(b *testing.B) { benchExperiment(b, "E3") })
	req := service.Request{Op: "analyze", Text: "benchmark full invoke path"}
	b.Run("invoke/pipeline", func(b *testing.B) {
		client := newBenchClient(b)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.Invoke(ctx, "bench", req, core.NoCache()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("invoke/seed-inline", func(b *testing.B) {
		invoke := newSeedInlineInvoke(b)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := invoke(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchService() service.Service {
	return service.Func{
		Meta: service.Info{Name: "bench", Category: "bench"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			return service.Response{Body: []byte("ok")}, nil
		},
	}
}

func newBenchClient(b testing.TB) *core.Client {
	b.Helper()
	client, err := core.NewClient(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	if err := client.Register(benchService(), core.WithCacheable()); err != nil {
		b.Fatal(err)
	}
	return client
}

// newPipelineCacheHit primes the client's cache and returns a closure
// hitting it through the full middleware chain.
func newPipelineCacheHit(b testing.TB) func(service.Request) (service.Response, error) {
	b.Helper()
	client := newBenchClient(b)
	ctx := context.Background()
	warm := service.Request{Op: "analyze", Text: benchDoc}
	if _, err := client.Invoke(ctx, "bench", warm); err != nil {
		b.Fatal(err)
	}
	return func(req service.Request) (service.Response, error) {
		return client.Invoke(ctx, "bench", req)
	}
}

// seedInvokeOpts mirrors the seed monolith's invokeOpts.
type seedInvokeOpts struct {
	noCache bool
	retry   *failover.RetryPolicy
}

// newSeedInlineCacheHit replicates the pre-pipeline monolithic Invoke's
// cache-hit path line for line: the variadic option loop (whose &io forced
// a heap allocation on every call, options or not), a mutex-guarded
// registration lookup, the "svc:"+name+":" key concatenation, and a direct
// cache Get — no middleware indirection. The cache itself is the same
// sharded LRU the Client constructs, so the guard isolates the chain's
// indirection.
func newSeedInlineCacheHit(b testing.TB) func(service.Request) (service.Response, error) {
	b.Helper()
	type seedReg struct {
		svc       service.Service
		cacheable bool
	}
	var mu sync.Mutex
	regs := map[string]*seedReg{"bench": {svc: benchService(), cacheable: true}}
	mem := cache.NewSharded[service.Response](4096)
	flight := cache.NewGroup[service.Response]()
	ctx := context.Background()
	name := "bench"
	seedInvoke := func(req service.Request, opts ...func(*seedInvokeOpts)) (service.Response, error) {
		var io seedInvokeOpts
		for _, o := range opts {
			o(&io)
		}
		mu.Lock()
		reg := regs[name]
		mu.Unlock()
		useCache := reg.cacheable && !io.noCache
		key := req.CacheKey("svc:" + name + ":")
		if useCache {
			if resp, err := mem.Get(key); err == nil {
				return resp, nil
			}
			resp, err, _ := flight.Do(key, func() (service.Response, error) {
				if resp, err := mem.Get(key); err == nil {
					return resp, nil
				}
				resp, err := reg.svc.Invoke(ctx, req)
				if err != nil {
					return service.Response{}, err
				}
				mem.Set(key, resp)
				return resp, nil
			})
			return resp, err
		}
		return reg.svc.Invoke(ctx, req)
	}
	invoke := func(req service.Request) (service.Response, error) { return seedInvoke(req) }
	warm := service.Request{Op: "analyze", Text: benchDoc}
	if _, err := invoke(warm); err != nil {
		b.Fatal(err)
	}
	return invoke
}

// newSeedInlineInvoke replicates the monolith's cache-miss path: timed
// failover.Invoke, a monitor observation, and a mutex-guarded predictor
// observation, inlined without the chain.
func newSeedInlineInvoke(b testing.TB) func(context.Context, service.Request) (service.Response, error) {
	b.Helper()
	svc := benchService()
	clk := clock.Real()
	monitors := metrics.NewRegistry()
	predictor := predict.New(predict.Config{})
	var mu sync.Mutex
	policy := failover.RetryPolicy{MaxAttempts: 2}
	return func(ctx context.Context, req service.Request) (service.Response, error) {
		params := []float64{float64(req.ArgSize())}
		start := clk.Now()
		resp, attempts, err := failover.Invoke(ctx, clk, svc, req, policy)
		elapsed := clk.Since(start)
		monitors.Monitor("bench").Record(metrics.Observation{
			Latency: elapsed, Err: err, Params: params, Attempts: attempts,
		})
		if err != nil {
			return service.Response{}, err
		}
		mu.Lock()
		predictor.Observe(params, elapsed)
		mu.Unlock()
		return resp, nil
	}
}

// newTracedBenchClient is newBenchClient with the given tracer wired into
// the middleware chain (nil disables tracing entirely).
func newTracedBenchClient(tb testing.TB, tr *trace.Tracer) *core.Client {
	tb.Helper()
	client, err := core.NewClient(core.Config{Tracer: tr})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	if err := client.Register(benchService(), core.WithCacheable()); err != nil {
		tb.Fatal(err)
	}
	return client
}

// newFacadeCacheHit builds the HTTP façade over a cache-primed client
// (optionally traced) and returns a closure performing one complete
// in-process POST /v1/invoke round trip: JSON decode, the middleware
// chain's cache-hit path, JSON encode.
func newFacadeCacheHit(tb testing.TB, tr *trace.Tracer) func() error {
	tb.Helper()
	client := newTracedBenchClient(tb, tr)
	api := core.NewAPI(client)
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
// TraceStage entirely, so it must match "untraced" within noise.
func BenchmarkTraceOverhead(b *testing.B) {
	req := service.Request{Op: "analyze", Text: benchDoc}
	clientBench := func(tr *trace.Tracer) func(*testing.B) {
		return func(b *testing.B) {
			client := newTracedBenchClient(b, tr)
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
// collections between batches.
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

// rdfShapeRules is the linear reachability rule set TestRDFInferenceShape
// chains over: on a linear rule set semi-naive evaluation derives every
// fact exactly once, which is the property the guard pins.
func rdfShapeRules() []rdf.Rule {
	edge := rdf.NewIRI("edge")
	reaches := rdf.NewIRI("reaches")
	x, y, z := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")
	return []rdf.Rule{
		{
			Name:        "reach-base",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: y}},
		},
		{
			Name:        "reach-step",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}, {S: y, P: reaches, O: z}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: z}},
		},
	}
}

// TestRDFInferenceShape guards the semi-naive inference engine by what a seed
// determines: on a 1000-node linear chain the semi-naive evaluator must
// reach the exact C(1000,2) closure while firing each rule exactly once
// per derived fact (ChainStats.Derivations == Derived), chaining the
// converged closure again must seed its round with nothing and fire no
// rule (ChainStats.Seeded == 0: the graph remembers its fixpoint), and
// the round-buffered naive strategy must add the identical fact set round
// for round. The wall clock is logged, not asserted: both engines run
// capped at the same round budget — the full naive closure takes minutes
// on the pre-PR string-keyed baseline — and the measured margin is >50x.
func TestRDFInferenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("inference guard skipped in -short mode")
	}
	const n = 1000
	rules := rdfShapeRules()
	stmts := make([]rdf.Statement, 0, n-1)
	for i := 0; i < n-1; i++ {
		stmts = append(stmts, rdf.Statement{
			S: rdf.NewIRI(fmt.Sprintf("n%04d", i)),
			P: rdf.NewIRI("edge"),
			O: rdf.NewIRI(fmt.Sprintf("n%04d", i+1)),
		})
	}
	newGraph := func() *rdf.Graph {
		g := rdf.NewGraph()
		if _, err := g.AddAll(stmts); err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Correctness: exact closure, each fact derived exactly once.
	g := newGraph()
	stats, err := rdf.ForwardChainStats(g, rules, n+100)
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; stats.Derived != want {
		t.Fatalf("semi-naive closure derived %d facts, want C(%d,2) = %d", stats.Derived, n, want)
	}
	if stats.Derivations != stats.Derived {
		t.Errorf("semi-naive fired %d rules for %d facts — re-derivation crept back in", stats.Derivations, stats.Derived)
	}
	if again, err := rdf.ForwardChainStats(g, rules, 0); err != nil || again.Derived != 0 || again.Seeded != 0 || again.Derivations != 0 {
		t.Errorf("re-chaining the converged graph: %+v, err %v; want nothing seeded, fired or derived", again, err)
	}

	// Naive and semi-naive must add the identical fact set when capped at
	// the same round count (both buffer a round's conclusions).
	const roundCap = 60
	gSemi, gNaive := newGraph(), newGraph()
	semiStats, _ := rdf.ForwardChainStats(gSemi, rules, roundCap)
	naiveStats, _ := rdf.ForwardChainNaive(gNaive, rules, roundCap)
	if semiStats.Derived != naiveStats.Derived || gSemi.Len() != gNaive.Len() {
		t.Errorf("round-capped engines diverged: semi %+v (len %d), naive %+v (len %d)",
			semiStats, gSemi.Len(), naiveStats, gNaive.Len())
	}
	if naiveStats.Derivations <= semiStats.Derivations {
		t.Errorf("naive fired %d rules vs semi-naive %d — naive should re-derive prior rounds",
			naiveStats.Derivations, semiStats.Derivations)
	}

	if raceflag.Enabled {
		t.Skip("timing leg skipped under the race detector: instrumentation distorts relative costs")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	semiRun := func() time.Duration {
		g := newGraph()
		start := time.Now()
		rdf.ForwardChainStats(g, rules, roundCap)
		return time.Since(start)
	}
	baselineRun := func() time.Duration {
		ref := rdfref.New()
		for _, s := range stmts {
			ref.MustAdd(s)
		}
		start := time.Now()
		rdfref.ForwardChain(ref, rules, roundCap)
		return time.Since(start)
	}
	semi, base := semiRun(), baselineRun()
	t.Logf("round-capped (%d rounds) N=%d chain: semi-naive %v, pre-PR naive baseline %v, speedup %.1fx",
		roundCap, n, semi, base, float64(base)/float64(semi))
}
