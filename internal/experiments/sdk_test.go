// Package experiments holds one test per claim in EXPERIMENTS.md (E1–E18,
// E20, A1–A4), named after the claim. Each test builds the claim's
// scenario at reduced scale from the exported API of the packages that
// own the behaviour and asserts the claim's direction with counts, seeded
// outcomes or gates; no test compares two durations. The package has no
// non-test code: the mechanism tests stay in the owning packages, and the
// speed ratios are measured by their in-package benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/future"
	"repro/internal/predict"
	"repro/internal/rank"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/xrand"
)

func newClient(t *testing.T, cfg core.Config) *core.Client {
	t.Helper()
	c, err := core.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// E1: caching avoids redundant service calls (Fig. 2, §2). A Zipf-skewed
// (θ=1.1) stream of 600 analyses over 400 documents, replayed at growing
// cache sizes: with no cache every request reaches the service, the hit
// ratio never falls as the cache grows, and a cache holding every
// document answers most requests.
func TestE1CachingShape(t *testing.T) {
	const requests, numDocs = 600, 400
	docs := make([]string, numDocs)
	for i := range docs {
		docs[i] = fmt.Sprintf("Document %d discusses the market with growth and decline in region %d.", i, i%17)
	}
	var prevRatio float64
	var noCacheCalls int64
	for _, size := range []int{0, 25, 100, 400} {
		c := newClient(t, core.Config{CacheSize: max(size, 1)})
		svc := simsvc.New(simsvc.Config{Info: service.Info{Name: "nlu-remote", Category: "nlu"}})
		var opts []core.RegisterOption
		if size > 0 {
			opts = append(opts, core.WithCacheable())
		}
		if err := c.Register(svc, opts...); err != nil {
			t.Fatal(err)
		}
		zipf := xrand.NewZipf(xrand.New(7), 1.1, numDocs)
		for i := 0; i < requests; i++ {
			if _, err := c.Invoke(context.Background(), "nlu-remote", service.Request{Op: "analyze", Text: docs[zipf.Next()]}); err != nil {
				t.Fatal(err)
			}
		}
		ratio, calls := c.CacheStats().HitRatio(), svc.Invocations()
		switch {
		case size == 0:
			noCacheCalls = calls
			if ratio != 0 || calls != requests {
				t.Errorf("no cache: hit ratio %v, %d service calls; want 0 and %d", ratio, calls, requests)
			}
		case ratio+1e-9 < prevRatio:
			t.Errorf("cache size %d: hit ratio %v fell below the smaller cache's %v", size, ratio, prevRatio)
		}
		if size == numDocs && (ratio < 0.5 || calls >= noCacheCalls) {
			t.Errorf("cache of every document: hit ratio %v (want > 0.5), %d service calls against %d uncached", ratio, calls, noCacheCalls)
		}
		prevRatio = ratio
	}
}

// traded is a population in which each service is the extreme of one
// factor: fastest, cheapest, best.
var traded = []rank.Estimate{
	{Name: "fast-premium", ResponseTimeMS: 12, Cost: 8.0, Quality: 0.85},
	{Name: "slow-budget", ResponseTimeMS: 180, Cost: 0.4, Quality: 0.80},
	{Name: "balanced-quality", ResponseTimeMS: 60, Cost: 2.5, Quality: 0.95},
}

// E2: Eq. 1 and Eq. 2 rank services by user-weighted time, cost and
// quality (§2). With one factor weighted, both formulas pick that
// factor's extreme.
func TestE2RankingShape(t *testing.T) {
	for _, c := range []struct {
		w    rank.Weights
		want string
	}{
		{rank.Weights{Alpha: 1}, "fast-premium"},
		{rank.Weights{Beta: 1}, "slow-budget"},
		{rank.Weights{Gamma: 1}, "balanced-quality"},
	} {
		for _, sc := range []rank.Scorer{rank.Weighted{W: c.w}, rank.Normalized{W: c.w}} {
			if b, err := rank.Best(traded, sc); err != nil || b.Name != c.want {
				t.Errorf("%T%+v: Best = (%s, %v), want %s", sc, c.w, b.Name, err, c.want)
			}
		}
	}
}

// E3: retries and ranked failover find a responsive service (§2.1). Over
// seeded transient failures a chain of three services with two attempts
// each answers at least as often as one service tried three times, which
// answers at least as often as a single attempt; at 50% per-service
// failures the chain still answers > 95% (1-0.5^6 ≈ 98.4%).
func TestE3FailoverShape(t *testing.T) {
	const requests = 400
	ctx := context.Background()
	req := service.Request{Op: "analyze", Text: "doc"}
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		mk := func(name string, seed int64) *simsvc.Service {
			return simsvc.New(simsvc.Config{Info: service.Info{Name: name, Category: "nlu"}, FailRate: p, Seed: seed})
		}
		single, retried := mk("single", 11), mk("retried", 22)
		chain := []failover.Step{
			{Service: mk("chain-1", 33), Policy: failover.RetryPolicy{MaxAttempts: 2}},
			{Service: mk("chain-2", 44), Policy: failover.RetryPolicy{MaxAttempts: 2}},
			{Service: mk("chain-3", 55), Policy: failover.RetryPolicy{MaxAttempts: 2}},
		}
		var singleOK, retryOK, chainOK float64
		for i := 0; i < requests; i++ {
			if _, err := single.Invoke(ctx, req); err == nil {
				singleOK++
			}
			if _, _, err := failover.Invoke(ctx, nil, retried, req, failover.RetryPolicy{MaxAttempts: 3}); err == nil {
				retryOK++
			}
			if _, _, err := failover.Chain(ctx, nil, chain, req); err == nil {
				chainOK++
			}
		}
		singleOK, retryOK, chainOK = singleOK/requests, retryOK/requests, chainOK/requests
		if retryOK+0.02 < singleOK || chainOK+0.02 < retryOK {
			t.Errorf("fail rate %.1f: availability single %.3f, retry x3 %.3f, chain 3x2 %.3f; want non-decreasing", p, singleOK, retryOK, chainOK)
		}
		if p == 0.5 && (chainOK < 0.95 || singleOK > 0.6) {
			t.Errorf("fail rate 0.5: chain availability %.3f (want > 0.95), single %.3f (want ~0.5)", chainOK, singleOK)
		}
	}
}

// E4: async and parallel calls overlap instead of queueing (§2, §2.1).
// Gates, not durations: in each leg every one of three services blocks
// until all three have started, so the leg completes only if the SDK runs
// the calls at once — a queueing SDK would leave the services waiting
// until the watchdog gives up.
func TestE4AsyncShape(t *testing.T) {
	const n = 3
	names := []string{"gate-a", "gate-b", "gate-c"}
	// gated registers three services in category cat whose calls block
	// until all three have started, or until the test ends.
	gated := func(t *testing.T, c *core.Client, cat string) *atomic.Int32 {
		var started atomic.Int32
		allStarted, abandoned := make(chan struct{}), make(chan struct{})
		t.Cleanup(func() { close(abandoned) }) // runs before c.Close, which waits for running calls
		for _, name := range names {
			err := c.Register(service.Func{
				Meta: service.Info{Name: name, Category: cat},
				Fn: func(context.Context, service.Request) (service.Response, error) {
					if started.Add(1) == n {
						close(allStarted)
					}
					select {
					case <-allStarted:
					case <-abandoned:
						return service.Response{}, service.ErrUnavailable
					}
					return service.Response{Body: []byte(name)}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return &started
	}

	t.Run("Async", func(t *testing.T) {
		c := newClient(t, core.Config{AsyncWorkers: 8})
		started := gated(t, c, "multi")
		futs := make([]*future.Future[service.Response], n)
		for i, name := range names {
			futs[i] = c.InvokeAsync(context.Background(), name, service.Request{})
		}
		for i, f := range futs {
			resp, err := f.GetTimeout(time.Minute)
			if err != nil {
				t.Fatalf("async call %d: %v (%d of %d services started)", i, err, started.Load(), n)
			}
			if string(resp.Body) != names[i] {
				t.Errorf("async call %d answered %q, want %q", i, resp.Body, names[i])
			}
		}
	})

	t.Run("Parallel", func(t *testing.T) {
		c := newClient(t, core.Config{})
		started := gated(t, c, "multi")
		type outcome struct {
			results []failover.Result
			err     error
		}
		done := make(chan outcome, 1)
		go func() {
			results, err := c.InvokeAll(context.Background(), "multi", service.Request{})
			done <- outcome{results, err}
		}()
		select {
		case o := <-done:
			results := o.results
			if o.err != nil {
				t.Fatal(o.err)
			}
			if len(results) != n {
				t.Fatalf("InvokeAll returned %d results, want %d", len(results), n)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Errorf("result %d: %v", i, r.Err)
				}
			}
		case <-time.After(time.Minute):
			t.Fatalf("InvokeAll did not run the category in parallel: %d of %d services started", started.Load(), n)
		}
	})
}

// E5: per-request latency prediction picks the right store across the
// size crossover (§2). s1 costs 1 ms + 0.02 ms/KB, s2 10 ms + 0.001
// ms/KB (crossover ≈ 474 KB); over a sweep that straddles it the
// predicted winner is the true one at every size but at most one.
func TestE5PredictionShape(t *testing.T) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	s1 := predict.New(predict.Config{MinObservations: 4})
	s2 := predict.New(predict.Config{MinObservations: 4})
	for kb := 10.0; kb <= 10240; kb *= 2 {
		s1.Observe([]float64{kb}, ms(1+0.02*kb))
		s2.Observe([]float64{kb}, ms(10+0.001*kb))
	}
	matches, sides := 0, map[bool]bool{}
	sizes := []float64{10, 64, 256, 474, 1024, 4096, 8192}
	for _, kb := range sizes {
		p1, err1 := s1.Predict([]float64{kb}, nil)
		p2, err2 := s2.Predict([]float64{kb}, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v KB: Predict errors %v, %v", kb, err1, err2)
		}
		trueS2 := 10+0.001*kb < 1+0.02*kb
		sides[trueS2] = true
		if (p2 < p1) == trueS2 {
			matches++
		}
	}
	if !sides[true] || !sides[false] {
		t.Error("the size sweep does not cross the crossover")
	}
	if matches < len(sizes)-1 {
		t.Errorf("predicted winner matched the true one at %d of %d sizes", matches, len(sizes))
	}
}

// A1: single-flight de-duplicates a cold-key stampede. Sixteen callers
// miss each cold key together: without single-flight each one calls the
// backend, with it one call fills the key for all; a 1 ns TTL expires
// every entry, so the same rounds refill the cache every time.
func TestA1CacheAblationShape(t *testing.T) {
	const callers, rounds, keys = 16, 8, 4
	run := func(useFlight bool, ttl time.Duration) int64 {
		mem := cache.NewSharded[int](1024, cache.WithTTL(ttl))
		group := cache.NewGroup[int]()
		var backendCalls atomic.Int64
		for r := 0; r < rounds; r++ {
			key := fmt.Sprintf("key-%d", r%keys)
			fill := func() (int, error) {
				backendCalls.Add(1)
				if useFlight {
					// Hold the leader's call until every other caller has
					// joined it, so the de-duplication is not a race. Give
					// up after a minute: callers that never join are a
					// broken group, which the call count then shows.
					for deadline := time.Now().Add(time.Minute); group.Waiters(key) < callers-1 && time.Now().Before(deadline); {
						time.Sleep(100 * time.Microsecond)
					}
				}
				return 42, nil
			}
			var probed, wg sync.WaitGroup
			probed.Add(callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := mem.Get(key)
					probed.Done()
					if err == nil {
						return
					}
					probed.Wait() // every caller has seen the miss
					if useFlight {
						if _, err := cache.Fill(context.Background(), mem, group, key, fill); err != nil {
							t.Error(err)
						}
						return
					}
					if v, err := fill(); err == nil {
						mem.Set(key, v)
					}
				}()
			}
			wg.Wait()
		}
		return backendCalls.Load()
	}
	flight, naive, expiring := run(true, 0), run(false, 0), run(true, time.Nanosecond)
	if flight != keys {
		t.Errorf("single-flight made %d backend calls, want one per cold key (%d)", flight, keys)
	}
	if flight >= naive {
		t.Errorf("single-flight calls %d >= no single-flight %d", flight, naive)
	}
	if expiring <= flight {
		t.Errorf("1ns TTL (%d calls) should refill more often than no-TTL single-flight (%d)", expiring, flight)
	}
}

// A2: normalize before weighting when factor scales differ (Eq. 2). Over
// random populations whose latency, cost and quality differ in magnitude
// by orders, the scale-free choice (Eq. 2's minimum, which it picks by
// definition) is what Eq. 1 misses: its raw milliseconds outweigh the
// other factors. Regret is the chosen service's Eq. 2 score above the
// minimum.
func TestA2ScoreAblationShape(t *testing.T) {
	rng := xrand.New(42)
	const trials = 400
	var regret1, regret2 float64
	var match1, match2 int
	utility := rank.Normalized{W: rank.DefaultWeights}
	for tr := 0; tr < trials; tr++ {
		ests := make([]rank.Estimate, 3+rng.Intn(3))
		for i := range ests {
			ests[i] = rank.Estimate{
				Name:           string(rune('a' + i)),
				ResponseTimeMS: 10 + 490*rng.Float64(),
				Cost:           0.1 + 4.9*rng.Float64(),
				Quality:        rng.Float64(),
			}
		}
		bestU := math.Inf(1)
		for _, e := range ests {
			bestU = math.Min(bestU, utility.Score(e, ests))
		}
		for _, p := range []struct {
			sc     rank.Scorer
			regret *float64
			match  *int
		}{{rank.Weighted{W: rank.DefaultWeights}, &regret1, &match1}, {rank.Normalized{W: rank.DefaultWeights}, &regret2, &match2}} {
			pick, err := rank.Best(ests, p.sc)
			if err != nil {
				t.Fatal(err)
			}
			u := utility.Score(pick.Estimate, ests)
			*p.regret += u - bestU
			if u == bestU {
				*p.match++
			}
		}
	}
	t.Logf("over %d populations: Eq. 1 picks the scale-free optimum %d times (mean regret %.3f), Eq. 2 %d times",
		trials, match1, regret1/trials, match2)
	if regret2 > regret1 {
		t.Errorf("Eq. 2 mean regret %.3f above Eq. 1's %.3f under imbalanced scales", regret2/trials, regret1/trials)
	}
	if float64(match2) < 0.99*trials {
		t.Errorf("Eq. 2 picks the scale-free optimum %d/%d times, want >= 99%%", match2, trials)
	}
}

// A3: regression where the data fits a line, k-NN where it does not. On
// 64 noisy observations of a linear latency the fitted model beats k-NN,
// and on both a linear and a quadratic latency k-NN beats the own-mean
// constant a predictor answers below MinObservations.
func TestA3PredictAblationShape(t *testing.T) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	for _, shape := range []struct {
		name string
		fn   func(x float64) float64 // ms
	}{
		{"linear", func(x float64) float64 { return 2 + 0.05*x }},
		{"quadratic", func(x float64) float64 { return 2 + 0.0004*x*x }},
	} {
		fitted := predict.New(predict.Config{MinObservations: 8, KNeighbors: 3})
		unfitted := predict.New(predict.Config{MinObservations: 1 << 30})
		rng := xrand.New(77)
		for i := 0; i < 64; i++ {
			x := float64(1 + rng.Intn(200))
			lat := ms(shape.fn(x) * (1 + 0.05*rng.NormFloat64()))
			fitted.Observe([]float64{x}, lat)
			unfitted.Observe([]float64{x}, lat)
		}
		mae := func(predict func([]float64) (time.Duration, error)) float64 {
			var sum float64
			n := 0
			for x := 10.0; x <= 190; x += 10 {
				got, err := predict([]float64{x})
				if err != nil {
					t.Fatal(err)
				}
				sum += math.Abs(float64(got)/float64(time.Millisecond) - shape.fn(x))
				n++
			}
			return sum / float64(n)
		}
		regression := mae(func(x []float64) (time.Duration, error) { return fitted.Predict(x, nil) })
		knn := mae(func(x []float64) (time.Duration, error) {
			d, ok := fitted.PredictKNN(x)
			if !ok {
				return 0, predict.ErrNoData
			}
			return d, nil
		})
		ownMean := mae(func(x []float64) (time.Duration, error) { return unfitted.Predict(x, nil) })
		t.Logf("%s latency: MAE regression %.2f ms, k-NN %.2f ms, own mean %.2f ms", shape.name, regression, knn, ownMean)
		if shape.name == "linear" && regression > knn {
			t.Errorf("linear latency: regression MAE %.2f ms above k-NN %.2f ms", regression, knn)
		}
		if knn >= ownMean {
			t.Errorf("%s latency: k-NN MAE %.2f ms not below the own-mean constant's %.2f ms", shape.name, knn, ownMean)
		}
	}
}
