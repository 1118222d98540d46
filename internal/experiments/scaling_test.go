package experiments

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lexicon"
	"repro/internal/metrics"
	"repro/internal/search"
	"repro/internal/search/searchref"
	"repro/internal/webcorpus"
)

// E18: block-max top-k keeps query cost near-flat as the corpus grows
// (§2.2). At 250, 1 000 and 2 500 documents the pruned evaluator returns
// exactly the exhaustive baseline's top-10 for a mix of short and long,
// common and rare, news-restricted queries, and its counters show it both
// scoring candidates and abandoning or skipping others — the bound checks
// are live. BenchmarkSearchPruned against BenchmarkSearchBaseline measures
// the speed side.
func TestE18SearchScalingShape(t *testing.T) {
	const limit = 10
	queries := []struct {
		q    string
		news bool
	}{
		{"market", false},
		{"market technology growth investment", false},
		{"acme corporation earnings", false},
		{"germany trade policy", true},
		{"usa", false},
		{"committee schedule conference", false},
		{"lawsuit scandal crisis", true},
		{"award breakthrough technology industry sector", false},
	}
	refParams := searchref.Params{Scoring: searchref.BM25, K1: 1.2, B: 0.75, TitleBoost: 2}
	for _, docs := range []int{250, 1000, 2500} {
		corpus := webcorpus.Generate(webcorpus.Config{Seed: int64(docs), NumDocs: docs})
		ref := searchref.BuildIndex(corpus)
		idx := search.BuildIndex(corpus, search.WithExpansion(lexicon.PMIConfig{}))
		var scored, abandoned int
		for _, q := range queries {
			want := ref.Search(q.q, refParams, searchref.Options{Limit: limit, NewsOnly: q.news})
			got, st := idx.SearchStats(q.q, search.TuningG, search.Options{Limit: limit, NewsOnly: q.news})
			scored += st.Scored
			abandoned += st.Pruned + st.BlockSkips
			if len(got) != len(want) {
				t.Errorf("docs=%d q=%q: %d results, baseline %d", docs, q.q, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i].DocID != want[i].DocID {
					t.Errorf("docs=%d q=%q rank %d: %s, baseline %s", docs, q.q, i, got[i].DocID, want[i].DocID)
				}
			}
		}
		if scored == 0 || abandoned == 0 {
			t.Errorf("docs=%d: the evaluator scored %d candidates and abandoned or skipped %d; want both > 0", docs, scored, abandoned)
		}
	}
}

// E20: instruments cost nanoseconds and no allocation (§4). The counter,
// gauge and histogram each run 40 000 operations alone and again split
// across max(2, GOMAXPROCS) goroutines hammering the one instrument;
// neither mode allocates (the heap's malloc count, read around the loop,
// moves by at most 0.01 per operation to allow for background runtime
// work). `make bench-metrics` measures the nanoseconds.
func TestE20InstrumentCostShape(t *testing.T) {
	const ops = 40_000
	procs := max(runtime.GOMAXPROCS(0), 2)
	c, g, h := metrics.NewCounter(), metrics.NewGauge(), metrics.NewHistogram()
	cases := []struct {
		name string
		op   func(i int)
	}{
		{"counter.Inc", func(int) { c.Inc() }},
		{"gauge.Set", func(i int) { g.Set(int64(i)) }},
		{"histogram.Observe", func(i int) { h.Observe(time.Duration(i%1_000_000) * time.Nanosecond) }},
	}
	allocsPerOp := func(op func(int), workers int) float64 {
		perWorker := ops / workers
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					op(i)
				}
			}()
		}
		wg.Wait()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(perWorker*workers)
	}
	for _, tc := range cases {
		for _, workers := range []int{1, procs} {
			if allocs := allocsPerOp(tc.op, workers); allocs > 0.01 {
				t.Errorf("%s on %d goroutine(s): %v allocations per op, want ~0", tc.name, workers, allocs)
			}
		}
	}
	total := uint64(ops + ops/procs*procs)
	if c.Value() != total || h.Snapshot().Count != total {
		t.Errorf("counter %d, histogram count %d after %d operations each", c.Value(), h.Snapshot().Count, total)
	}
}
