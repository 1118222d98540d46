package search

import (
	"testing"
	"time"

	"repro/internal/lexicon"
	"repro/internal/metrics"
	"repro/internal/webcorpus"
)

func TestWithMetricsRecordsQueries(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 21, NumDocs: 150})
	set := metrics.NewSet()
	idx := BuildIndex(c, WithExpansion(lexicon.PMIConfig{}), WithMetrics(set))

	queries := []string{"market growth technology", "Acme Corporation", "energy policy"}
	var wantScans, wantSkips, wantPruned, wantExpanded int
	for _, q := range queries {
		_, stats := idx.SearchStats(q, TuningG, Options{Limit: 10, Expand: true})
		wantScans += stats.BlockScans
		wantSkips += stats.BlockSkips
		wantPruned += stats.Pruned
		wantExpanded += stats.Expanded
	}

	// Set lookups are idempotent: re-asking by name+labels returns the
	// instruments BuildIndex registered.
	hist := set.Histogram("richsdk_search_query_seconds", "")
	if got := hist.Snapshot().Count; got != uint64(len(queries)) {
		t.Errorf("query histogram count = %d, want %d", got, len(queries))
	}
	scanned := set.Counter("richsdk_search_blocks_total", "", metrics.Label{Name: "outcome", Value: "scanned"})
	skipped := set.Counter("richsdk_search_blocks_total", "", metrics.Label{Name: "outcome", Value: "skipped"})
	if got := scanned.Value(); got != uint64(wantScans) {
		t.Errorf("scanned counter = %d, want %d", got, wantScans)
	}
	if got := skipped.Value(); got != uint64(wantSkips) {
		t.Errorf("skipped counter = %d, want %d", got, wantSkips)
	}
	if wantScans == 0 {
		t.Error("expected at least one probed block across the query batch")
	}
	if got := set.Counter("richsdk_search_pruned_candidates_total", "").Value(); got != uint64(wantPruned) {
		t.Errorf("pruned counter = %d, want %d", got, wantPruned)
	}
	if got := set.Counter("richsdk_search_expansion_terms_total", "").Value(); got != uint64(wantExpanded) {
		t.Errorf("expansion counter = %d, want %d", got, wantExpanded)
	}
	gauge := set.Gauge("richsdk_intern_dict_size", "", metrics.Label{Name: "dict", Value: "search"})
	if got := gauge.Value(); got != int64(idx.dict.Len()) {
		t.Errorf("dict gauge = %d, want %d", got, idx.dict.Len())
	}
}

// TestInstrumentedSearchAllocs guards what permanently instrumenting the
// query path may cost: on a server-scale corpus an instrumented index's
// Search makes exactly the allocations of an uninstrumented twin, and its
// instruments count every query. The wall-clock ratio is logged, not
// asserted; the benchmark measures the query path as search.query_us.
func TestInstrumentedSearchAllocs(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 8, NumDocs: 600})
	set := metrics.NewSet()
	plain, inst := BuildIndex(corpus), BuildIndex(corpus, WithMetrics(set))
	queries := []string{"market growth technology", "Acme Corporation", "energy policy europe", "quarterly earnings"}
	const runs = 20
	for _, q := range queries {
		search := func(idx *Index) func() {
			return func() { idx.Search(q, TuningG, Options{Limit: 10}) }
		}
		if p, i := testing.AllocsPerRun(runs, search(plain)), testing.AllocsPerRun(runs, search(inst)); i != p {
			t.Errorf("q=%q: instrumented Search allocates %v per query, uninstrumented %v", q, i, p)
		}
	}
	// AllocsPerRun calls its function once more than runs, to warm up.
	if got, want := set.Histogram("richsdk_search_query_seconds", "").Snapshot().Count, uint64(len(queries)*(runs+1)); got != want {
		t.Errorf("query histogram count = %d, want %d", got, want)
	}
	if set.Counter("richsdk_search_blocks_total", "", metrics.Label{Name: "outcome", Value: "scanned"}).Value() == 0 {
		t.Error("scanned-block counter stayed zero")
	}

	batch := func(idx *Index) time.Duration {
		start := time.Now()
		for i := 0; i < 200; i++ {
			idx.Search(queries[i%len(queries)], TuningG, Options{Limit: 10})
		}
		return time.Since(start)
	}
	ti, tp := batch(inst), batch(plain)
	t.Logf("200 queries: instrumented %v, uninstrumented %v (%+.1f%%)", ti, tp, 100*(float64(ti)/float64(tp)-1))
}

func TestWithMetricsEmptyQueryStillObserved(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 21, NumDocs: 40})
	set := metrics.NewSet()
	idx := BuildIndex(c, WithMetrics(set))
	// A query with no indexable terms takes the early return; its latency
	// must still land in the histogram so count == queries issued.
	idx.Search("!!! ???", TuningG, Options{})
	if got := set.Histogram("richsdk_search_query_seconds", "").Snapshot().Count; got != 1 {
		t.Errorf("histogram count after no-term query = %d, want 1", got)
	}
}

func TestUninstrumentedIndexHasNoObs(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 21, NumDocs: 40})
	idx := BuildIndex(c)
	if idx.obs != nil {
		t.Fatal("index built without WithMetrics has obs set")
	}
	// And a nil set behaves like omitting the option.
	idx = BuildIndex(c, WithMetrics(nil))
	if idx.obs != nil {
		t.Fatal("WithMetrics(nil) attached instruments")
	}
	idx.Search("market", TuningG, Options{})
}
