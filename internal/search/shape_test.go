package search_test

import (
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/search/searchref"
	"repro/internal/webcorpus"
)

// TestSearchShape is the tier-1 guard for the dictionary-coded block-max
// engine at scale: on a 50k-doc corpus at k=10 the pruned evaluator must
// return exactly the exhaustive baseline's top-k (same docs, same
// tie-break order). The speedup over the frozen seed engine is logged,
// not asserted; the benchmark measures it as search.query_us.
func TestSearchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("search guard skipped in -short mode")
	}
	const docs = 50000
	const limit = 10
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 18, NumDocs: docs})
	idx := search.BuildIndex(corpus)
	ref := searchref.BuildIndex(corpus)
	refParams := searchref.Params{Scoring: searchref.BM25, K1: 1.2, B: 0.75, TitleBoost: 2}
	queries := []struct {
		q    string
		news bool
	}{
		{"market", false},
		{"market technology growth investment", false},
		{"acme corporation earnings", false},
		{"germany trade policy", true},
		{"committee schedule conference", false},
	}

	var pruned, exhaustive time.Duration
	for _, qc := range queries {
		start := time.Now()
		got := idx.Search(qc.q, search.TuningG, search.Options{Limit: limit, NewsOnly: qc.news})
		pruned += time.Since(start)
		start = time.Now()
		want := ref.Search(qc.q, refParams, searchref.Options{Limit: limit, NewsOnly: qc.news})
		exhaustive += time.Since(start)
		if len(got) != len(want) {
			t.Fatalf("q=%q: pruned returned %d results, exhaustive %d", qc.q, len(got), len(want))
		}
		for i := range got {
			if got[i].DocID != want[i].DocID {
				t.Fatalf("q=%q rank %d: pruned %s, exhaustive %s", qc.q, i, got[i].DocID, want[i].DocID)
			}
		}
	}
	t.Logf("%d-doc corpus, %d queries at k=%d: pruned %v, seed baseline %v",
		docs, len(queries), limit, pruned, exhaustive)
}
