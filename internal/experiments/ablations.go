package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rank"
	"repro/internal/rdf"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// --- A1: cache design ablation (TTL, single-flight) ---

// A1Row is one cache configuration's behaviour under a concurrent stampede.
type A1Row struct {
	Config       string
	BackendCalls int
	HitRatio     float64
}

// RunA1 hammers a cold cache with concurrent identical requests and counts
// backend fills with and without single-flight, plus TTL-expiry effects.
func RunA1(scale Scale) ([]A1Row, Table, error) {
	concurrency := 16
	rounds := scale.n(40)
	run := func(useFlight bool, ttl time.Duration) (int, float64) {
		mem := cache.NewMemory[int](1024, cache.WithTTL(ttl))
		group := cache.NewGroup[int]()
		var mu sync.Mutex
		backendCalls := 0
		fill := func() (int, error) {
			mu.Lock()
			backendCalls++
			mu.Unlock()
			time.Sleep(200 * time.Microsecond) // simulated remote call
			return 42, nil
		}
		for r := 0; r < rounds; r++ {
			// A small reused key set: later rounds hit unless the TTL
			// already expired the entry.
			key := fmt.Sprintf("key-%d", r%4)
			var wg sync.WaitGroup
			for g := 0; g < concurrency; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if useFlight {
						_, _, _ = cache.GetOrFill(context.Background(), mem, group, key, fill)
						return
					}
					if _, err := mem.Get(key); err == nil {
						return
					}
					v, err := fill()
					if err == nil {
						mem.Set(key, v)
					}
				}()
			}
			wg.Wait()
		}
		return backendCalls, mem.Stats().HitRatio()
	}
	callsFlight, hitFlight := run(true, 0)
	callsNaive, hitNaive := run(false, 0)
	callsTTL, hitTTL := run(true, time.Nanosecond) // everything expires immediately
	rows := []A1Row{
		{Config: "single-flight, no TTL", BackendCalls: callsFlight, HitRatio: hitFlight},
		{Config: "no single-flight", BackendCalls: callsNaive, HitRatio: hitNaive},
		{Config: "single-flight, 1ns TTL", BackendCalls: callsTTL, HitRatio: hitTTL},
	}
	t := Table{
		ID:     "A1",
		Title:  fmt.Sprintf("Cache ablation: %d goroutines x %d cold keys", concurrency, rounds),
		Claim:  "design choice: request de-duplication on cold keys (DESIGN.md)",
		Header: []string{"config", "backend_calls", "hit_ratio"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, d(int64(r.BackendCalls)), f2(r.HitRatio)})
	}
	t.Notes = fmt.Sprintf("single-flight issues %d backend calls (one per key); the cold-key stampede without it issues %dx more; an aggressive TTL refills every round (%d calls)",
		callsFlight, callsNaive/max(callsFlight, 1), callsTTL)
	return rows, t, nil
}

// --- A2: scoring formula ablation (selection regret) ---

// A2Row is one scorer's mean selection regret.
type A2Row struct {
	Scorer      string
	MeanRegret  float64
	WinnerMatch float64
}

// RunA2 draws random service populations whose latency and cost scales are
// imbalanced, defines the user's true utility on normalized factors, and
// measures each scorer's regret against the true best choice.
func RunA2(scale Scale) ([]A2Row, Table, error) {
	trials := scale.n(2000)
	rng := xrand.New(42)
	userW := rank.Weights{Alpha: 1, Beta: 1, Gamma: 1}
	scorers := []struct {
		name string
		s    rank.Scorer
	}{
		{"eq1-weighted", rank.Weighted{W: userW}},
		{"eq2-normalized", rank.Normalized{W: userW}},
		{"latency-only", rank.Weighted{W: rank.Weights{Alpha: 1}}},
	}
	regret := make([]float64, len(scorers))
	matches := make([]int, len(scorers))
	trueScore := func(e rank.Estimate, all []rank.Estimate) float64 {
		// Ground-truth utility: the normalized score (scale-free by
		// construction — the user cares about relative standing).
		return rank.Normalized{W: userW}.Score(e, all)
	}
	for tr := 0; tr < trials; tr++ {
		n := 3 + rng.Intn(3)
		ests := make([]rank.Estimate, n)
		for i := range ests {
			ests[i] = rank.Estimate{
				Name:           fmt.Sprintf("svc%d", i),
				ResponseTimeMS: 10 + 490*rng.Float64(),  // big magnitudes
				Cost:           0.1 + 4.9*rng.Float64(), // small magnitudes
				Quality:        rng.Float64(),           // tiny magnitudes
			}
		}
		bestTrue := math.Inf(1)
		for _, e := range ests {
			if s := trueScore(e, ests); s < bestTrue {
				bestTrue = s
			}
		}
		for si, sc := range scorers {
			pick, err := rank.Best(ests, sc.s)
			if err != nil {
				return nil, Table{}, err
			}
			got := trueScore(pick.Estimate, ests)
			regret[si] += got - bestTrue
			if got == bestTrue {
				matches[si]++
			}
		}
	}
	var rows []A2Row
	for si, sc := range scorers {
		rows = append(rows, A2Row{
			Scorer:      sc.name,
			MeanRegret:  regret[si] / float64(trials),
			WinnerMatch: float64(matches[si]) / float64(trials),
		})
	}
	t := Table{
		ID:     "A2",
		Title:  fmt.Sprintf("Selection regret over %d random service populations (imbalanced scales)", trials),
		Claim:  "design choice: when factor magnitudes differ wildly, normalize before weighting (Eq.2)",
		Header: []string{"scorer", "mean_regret", "picks_true_best"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Scorer, f(r.MeanRegret), f2(r.WinnerMatch)})
	}
	t.Notes = "eq2 matches the scale-free utility by construction; eq1 over-weights the large-magnitude latency factor"
	return rows, t, nil
}

// --- A3: latency prediction ablation (regression vs k-NN) ---

// A3Row is one predictor's error on one latency shape.
type A3Row struct {
	Shape     string
	Predictor string
	MAEms     float64
}

// RunA3 compares the regression model, the k-NN fallback and the own-mean
// constant (what a predictor answers below MinObservations) on linear and
// quadratic latency functions of the size parameter.
func RunA3(scale Scale) ([]A3Row, Table, error) {
	trainN := scale.n(64)
	shapes := []struct {
		name string
		fn   func(x float64) float64 // ms
	}{
		{"linear", func(x float64) float64 { return 2 + 0.05*x }},
		{"quadratic", func(x float64) float64 { return 2 + 0.0004*x*x }},
	}
	var rows []A3Row
	for _, shape := range shapes {
		// Train both predictors on the same noisy observations.
		fitted := predict.New(predict.Config{MinObservations: 8, KNeighbors: 3})
		unfitted := predict.New(predict.Config{MinObservations: 1 << 30}) // never leaves the own-mean fallback
		rng := xrand.New(77)
		for i := 0; i < trainN; i++ {
			x := float64(1 + rng.Intn(200))
			noisy := shape.fn(x) * (1 + 0.05*rng.NormFloat64())
			lat := time.Duration(noisy * float64(time.Millisecond))
			fitted.Observe([]float64{x}, lat)
			unfitted.Observe([]float64{x}, lat)
		}
		for _, pr := range []struct {
			name    string
			predict func(params []float64) (time.Duration, error)
		}{
			{"regression", func(params []float64) (time.Duration, error) { return fitted.Predict(params, nil) }},
			{"knn-3", func(params []float64) (time.Duration, error) {
				d, ok := fitted.PredictKNN(params)
				if !ok {
					return 0, predict.ErrNoData
				}
				return d, nil
			}},
			{"own-mean", func(params []float64) (time.Duration, error) { return unfitted.Predict(params, nil) }},
		} {
			var absErr []float64
			for x := 10.0; x <= 190; x += 10 {
				got, err := pr.predict([]float64{x})
				if err != nil {
					return nil, Table{}, err
				}
				gotMs := float64(got) / float64(time.Millisecond)
				absErr = append(absErr, math.Abs(gotMs-shape.fn(x)))
			}
			rows = append(rows, A3Row{Shape: shape.name, Predictor: pr.name, MAEms: stats.Mean(absErr)})
		}
	}
	t := Table{
		ID:     "A3",
		Title:  "Latency prediction error: regression vs k-NN vs own mean",
		Claim:  "design choice: fit a model when data supports it, fall back to neighbours otherwise (DESIGN.md)",
		Header: []string{"latency_shape", "predictor", "mae_ms"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Shape, r.Predictor, f2(r.MAEms)})
	}
	t.Notes = "linear regression dominates on linear latency; on the quadratic shape the linear model misfits and k-NN beats it; both beat the own-mean constant a predictor answers below MinObservations"
	return rows, t, nil
}

// --- A4: forward vs backward chaining (query cost) ---

// A4Row is one strategy's cost for one query pattern.
type A4Row struct {
	Workload string
	Strategy string
	Elapsed  time.Duration
	Facts    int
}

// RunA4 compares materializing the full closure (forward chaining) against
// goal-directed proof (backward chaining) for a single ground query over a
// large lattice.
func RunA4(scale Scale) ([]A4Row, Table, error) {
	n := scale.n(60)
	build := func() *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < n-1; i++ {
			g.MustAdd(rdf.Statement{
				S: rdf.NewIRI(fmt.Sprintf("c%03d", i)),
				P: rdf.NewIRI(rdf.RDFSSubClassOf),
				O: rdf.NewIRI(fmt.Sprintf("c%03d", i+1)),
			})
		}
		return g
	}
	goal := rdf.Statement{
		S: rdf.NewIRI("c000"),
		P: rdf.NewIRI(rdf.RDFSSubClassOf),
		O: rdf.NewIRI(fmt.Sprintf("c%03d", n-1)),
	}
	rules := rdf.TransitiveRules()

	gF := build()
	startF := time.Now()
	if _, err := rdf.ForwardChain(gF, rules, 0); err != nil {
		return nil, Table{}, err
	}
	if !gF.Has(goal) {
		return nil, Table{}, fmt.Errorf("forward chaining missed the goal")
	}
	forwardElapsed := time.Since(startF)

	gB := build()
	startB := time.Now()
	bindings, err := rdf.BackwardChain(gB, rules, goal, 2*n)
	if err != nil {
		return nil, Table{}, err
	}
	if len(bindings) == 0 {
		return nil, Table{}, fmt.Errorf("backward chaining missed the goal")
	}
	backwardElapsed := time.Since(startB)

	rows := []A4Row{
		{Workload: "single ground query", Strategy: "forward (materialize closure)", Elapsed: forwardElapsed, Facts: gF.Len()},
		{Workload: "single ground query", Strategy: "backward (goal-directed)", Elapsed: backwardElapsed, Facts: gB.Len()},
	}
	t := Table{
		ID:     "A4",
		Title:  fmt.Sprintf("One reachability query over a %d-class lattice", n),
		Claim:  "design choice: Jena offers forward, tabled backward, and hybrid strategies because their costs differ (§3)",
		Header: []string{"workload", "strategy", "elapsed", "stored_facts_after"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, r.Strategy, r.Elapsed.String(), d(int64(r.Facts))})
	}
	t.Notes = fmt.Sprintf("backward chaining answers without materializing the %d-fact closure; forward pays once but serves later queries for free", rows[0].Facts)
	return rows, t, nil
}
