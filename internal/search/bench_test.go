package search

import (
	"fmt"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/search/searchref"
	"repro/internal/webcorpus"
)

func benchIndex(b *testing.B) *Index {
	b.Helper()
	return BuildIndex(webcorpus.Generate(webcorpus.Config{Seed: 4, NumDocs: 1000}))
}

// BenchmarkBuildIndex builds the index as programs do, with expansion
// on, at 1k and 20k documents.
func BenchmarkBuildIndex(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			corpus := benchCorpus(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if idx := BuildIndex(corpus, WithExpansion(lexicon.PMIConfig{})); idx == nil {
					b.Fatal("nil index")
				}
			}
		})
	}
}

func BenchmarkSearchBM25(b *testing.B) {
	idx := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Search("market technology growth investment", TuningG, Options{Limit: 10}); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSearchTFIDF(b *testing.B) {
	idx := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Search("market technology growth investment", TuningB, Options{Limit: 10}); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSearchNewsOnly(b *testing.B) {
	idx := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Search("market", TuningG, Options{Limit: 10, NewsOnly: true}); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

// Baseline-vs-pruned benchmarks: the same query against the frozen seed
// engine (full scan + sort) and the block-max evaluator at growing corpus
// sizes. Run via `make bench-search`.

func benchCorpus(n int) *webcorpus.Corpus {
	return webcorpus.Generate(webcorpus.Config{Seed: 4, NumDocs: n})
}

const benchQuery = "market technology growth investment"

func benchSizes(b *testing.B, run func(b *testing.B, c *webcorpus.Corpus)) {
	for _, n := range []int{1000, 10000, 50000} {
		n := n
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			run(b, benchCorpus(n))
		})
	}
}

func BenchmarkSearchBaseline(b *testing.B) {
	benchSizes(b, func(b *testing.B, c *webcorpus.Corpus) {
		idx := searchref.BuildIndex(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := idx.Search(benchQuery, searchref.Params{Scoring: searchref.BM25, K1: 1.2, B: 0.75, TitleBoost: 2}, searchref.Options{Limit: 10}); len(got) == 0 {
				b.Fatal("no results")
			}
		}
	})
}

func BenchmarkSearchPruned(b *testing.B) {
	benchSizes(b, func(b *testing.B, c *webcorpus.Corpus) {
		idx := BuildIndex(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := idx.Search(benchQuery, TuningG, Options{Limit: 10}); len(got) == 0 {
				b.Fatal("no results")
			}
		}
	})
}

func BenchmarkSearchExpanded(b *testing.B) {
	benchSizes(b, func(b *testing.B, c *webcorpus.Corpus) {
		idx := BuildIndex(c, WithExpansion(lexicon.PMIConfig{}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := idx.Search(benchQuery, TuningG, Options{Limit: 10, Expand: true}); len(got) == 0 {
				b.Fatal("no results")
			}
		}
	})
}

// BenchmarkSearchMix is the query traffic the repository benchmark sends
// to the search services: three-word queries drawn from document bodies
// of the 20k seed-1 corpus, alternating TuningG plain and TuningB
// expanded at limit 10. One op is one search.
func BenchmarkSearchMix(b *testing.B) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, NumDocs: 20000})
	idx := BuildIndex(c, WithExpansion(lexicon.PMIConfig{}))
	queries := bodyQueries(c, 1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[(i/2)%len(queries)]
		if i%2 == 0 {
			idx.Search(q, TuningG, Options{Limit: 10})
		} else {
			idx.Search(q, TuningB, Options{Limit: 10, Expand: true})
		}
	}
}
