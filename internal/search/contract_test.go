package search_test

// Contract tests over the exported API: the Score-then-DocID tie-break
// (pinned against both the new evaluator and the frozen searchref
// baseline over a hand-crafted corpus of identical documents), query
// expansion semantics, and the service parameter surface through the
// HTTP facade.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lexicon"
	"repro/internal/search"
	"repro/internal/search/searchref"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// tieCorpus builds a corpus of n docs with identical bodies and titles
// (identical term profiles → identical scores) plus one strictly better
// doc at the given position, alternating kinds so the NewsOnly leg has
// ties too.
func tieCorpus(n, bestAt int) *webcorpus.Corpus {
	docs := make([]webcorpus.Document, n)
	for i := range docs {
		// The last third of the corpus omits "alpha" so its document
		// frequency stays below n (TF-IDF idf would otherwise collapse to
		// zero and tie everything).
		body := "alpha beta gamma delta market"
		if i >= n-n/3 {
			body = "beta gamma delta market"
		}
		if i == bestAt {
			body = "alpha alpha alpha beta gamma delta market"
		}
		kind := "news"
		if i%2 == 1 {
			kind = "blog"
		}
		docs[i] = webcorpus.Document{
			ID:        fmt.Sprintf("doc-%06d", i),
			URL:       fmt.Sprintf("http://web.local/docs/doc-%06d", i),
			Title:     "epsilon zeta",
			Body:      body,
			Kind:      kind,
			Published: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
		}
	}
	return &webcorpus.Corpus{Docs: docs}
}

// TestSearchTieBreakContract pins the ordering contract: score
// descending, ties broken by DocID ascending — identical across both
// evaluators, both scorers, any Limit, and with NewsOnly.
func TestSearchTieBreakContract(t *testing.T) {
	c := tieCorpus(12, 7)
	idx := search.BuildIndex(c)
	ref := searchref.BuildIndex(c)
	params := []struct {
		name string
		new  search.Params
		ref  searchref.Params
	}{
		{"bm25", search.Params{Scoring: search.BM25, TitleBoost: 1}, searchref.Params{Scoring: searchref.BM25, TitleBoost: 1}},
		{"tfidf", search.Params{Scoring: search.TFIDF, TitleBoost: 1}, searchref.Params{Scoring: searchref.TFIDF, TitleBoost: 1}},
	}
	for _, p := range params {
		for _, limit := range []int{1, 3, 5, 12, 50} {
			for _, news := range []bool{false, true} {
				label := fmt.Sprintf("%s limit=%d news=%v", p.name, limit, news)
				got := idx.Search("alpha market", p.new, search.Options{Limit: limit, NewsOnly: news})
				want := ref.Search("alpha market", p.ref, searchref.Options{Limit: limit, NewsOnly: news})
				if len(got) != len(want) {
					t.Fatalf("%s: %d vs %d results", label, len(got), len(want))
				}
				for i := range got {
					if got[i].DocID != want[i].DocID {
						t.Fatalf("%s: rank %d: %s vs reference %s", label, i, got[i].DocID, want[i].DocID)
					}
				}
				// The contract itself, not just baseline agreement: the
				// strictly-better doc first, then tied docs by ascending ID.
				if !news && limit >= 12 {
					if got[0].DocID != "doc-000007" {
						t.Fatalf("%s: best doc ranked %s first", label, got[0].DocID)
					}
					for i := 2; i < len(got); i++ {
						if got[i-1].Score == got[i].Score && got[i-1].DocID >= got[i].DocID {
							t.Fatalf("%s: tie at rank %d not broken by ascending DocID: %s then %s",
								label, i, got[i-1].DocID, got[i].DocID)
						}
					}
				}
			}
		}
	}
}

func expansionIndex(t *testing.T) (*search.Index, *webcorpus.Corpus) {
	t.Helper()
	c := webcorpus.Generate(webcorpus.Config{Seed: 42, NumDocs: 500})
	return search.BuildIndex(c, search.WithExpansion(lexicon.PMIConfig{})), c
}

// TestSearchExpansionChangesRanking verifies expansion is live and
// useful: an alias query with expansion on retrieves documents the
// literal query cannot see, and those documents really do carry only the
// alias's synonyms.
func TestSearchExpansionChangesRanking(t *testing.T) {
	idx, c := expansionIndex(t)
	p := search.Params{Scoring: search.BM25, TitleBoost: 2, ExpandWeight: 0.5, ExpandTerms: 4}
	plain, _ := idx.SearchStats("usa", p, search.Options{Limit: 200})
	expanded, stats := idx.SearchStats("usa", p, search.Options{Limit: 200, Expand: true})
	if stats.Expanded == 0 {
		t.Fatal("expansion added no terms for an alias query")
	}
	byID := make(map[string]*webcorpus.Document, len(c.Docs))
	for i := range c.Docs {
		byID[c.Docs[i].ID] = &c.Docs[i]
	}
	seen := make(map[string]bool, len(plain))
	for _, r := range plain {
		seen[r.DocID] = true
	}
	gained := 0
	for _, r := range expanded {
		if seen[r.DocID] {
			continue
		}
		gained++
		d, ok := byID[r.DocID]
		if !ok {
			t.Fatalf("expanded hit %s not in corpus", r.DocID)
		}
		text := strings.ToLower(d.Body + " " + d.Title)
		if strings.Contains(text, "usa") {
			t.Errorf("doc %s contains the literal query term yet only the expanded query found it", r.DocID)
		}
	}
	if gained == 0 {
		t.Error("expanded query retrieved no documents beyond the literal query")
	}
}

// TestSearchExpansionWeightIsTunable pins that ExpandWeight actually
// scales expansion-term contributions: a doc reachable only through
// expansion scores proportionally higher under a heavier weight, so
// differently tuned profiles rank it differently.
func TestSearchExpansionWeightIsTunable(t *testing.T) {
	idx, _ := expansionIndex(t)
	light := search.Params{Scoring: search.BM25, ExpandWeight: 0.1, ExpandTerms: 4}
	heavy := search.Params{Scoring: search.BM25, ExpandWeight: 0.9, ExpandTerms: 4}
	opts := search.Options{Limit: 300, Expand: true}
	plain := idx.Search("usa", search.Params{Scoring: search.BM25}, search.Options{Limit: 300})
	literal := make(map[string]bool, len(plain))
	for _, r := range plain {
		literal[r.DocID] = true
	}
	lightRes := idx.Search("usa", light, opts)
	heavyRes := idx.Search("usa", heavy, opts)
	lightScore := make(map[string]float64, len(lightRes))
	for _, r := range lightRes {
		lightScore[r.DocID] = r.Score
	}
	checked := 0
	for _, r := range heavyRes {
		if literal[r.DocID] {
			continue // has a full-weight literal match; ratio not clean
		}
		if ls, ok := lightScore[r.DocID]; ok && ls > 0 {
			checked++
			if r.Score <= ls {
				t.Errorf("doc %s: heavy weight scored %v, light %v — expansion weight not scaling", r.DocID, r.Score, ls)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no expansion-only docs to compare across weights")
	}
}

// TestSearchExpansionOffMatchesBaseline: building with WithExpansion must
// not perturb default ranking — with Options.Expand unset the index
// agrees exactly with the frozen baseline.
func TestSearchExpansionOffMatchesBaseline(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 42, NumDocs: 300})
	idx := search.BuildIndex(c, search.WithExpansion(lexicon.PMIConfig{}))
	ref := searchref.BuildIndex(c)
	for _, q := range []string{"usa", "acme market", "germany trade policy"} {
		got := idx.Search(q, search.TuningG, search.Options{Limit: 25})
		want := ref.Search(q, searchref.Params{Scoring: searchref.BM25, K1: 1.2, B: 0.75, TitleBoost: 2}, searchref.Options{Limit: 25})
		if len(got) != len(want) {
			t.Fatalf("q=%q: %d vs %d results", q, len(got), len(want))
		}
		for i := range got {
			if got[i].DocID != want[i].DocID {
				t.Fatalf("q=%q rank %d: %s vs %s", q, i, got[i].DocID, want[i].DocID)
			}
		}
	}
}

// TestServiceParamsThroughHTTPFacade drives the engine service through
// Handler + HTTPClient and asserts both the happy paths of the new
// offset/expand params and that ErrBadRequest wrapping survives the HTTP
// round-trip for every malformed input.
func TestServiceParamsThroughHTTPFacade(t *testing.T) {
	idx, _ := expansionIndex(t)
	e := search.NewEngine("search-y", idx, search.TuningY)
	srv := httptest.NewServer(service.Handler(e.Service(service.Info{Name: "search-y", Category: "search"})))
	defer srv.Close()
	client := service.NewHTTPClient(service.Info{Name: "search-y", Category: "search"}, srv.URL, 5*time.Second)
	ctx := context.Background()

	t.Run("offset windows the ranking", func(t *testing.T) {
		full, err := client.Invoke(ctx, service.Request{Query: "market", Params: map[string]string{"limit": "10"}})
		if err != nil {
			t.Fatal(err)
		}
		page, err := client.Invoke(ctx, service.Request{Query: "market", Params: map[string]string{"limit": "5", "offset": "5"}})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := search.DecodeResults(full)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := search.DecodeResults(page)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Results) != 10 || len(pr.Results) != 5 {
			t.Fatalf("got %d full and %d paged results", len(fr.Results), len(pr.Results))
		}
		for i := range pr.Results {
			if pr.Results[i].DocID != fr.Results[5+i].DocID {
				t.Fatalf("page rank %d is %s, window has %s", i, pr.Results[i].DocID, fr.Results[5+i].DocID)
			}
		}
	})

	t.Run("expand param broadens results", func(t *testing.T) {
		plain, err := client.Invoke(ctx, service.Request{Query: "usa", Params: map[string]string{"limit": "200"}})
		if err != nil {
			t.Fatal(err)
		}
		wide, err := client.Invoke(ctx, service.Request{Query: "usa", Params: map[string]string{"limit": "200", "expand": "true"}})
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := search.DecodeResults(plain)
		wr, _ := search.DecodeResults(wide)
		if len(wr.Results) <= len(pr.Results) {
			t.Errorf("expand=true returned %d results, plain %d — expansion had no effect", len(wr.Results), len(pr.Results))
		}
	})

	t.Run("news param filters kinds", func(t *testing.T) {
		resp, err := client.Invoke(ctx, service.Request{Query: "market", Params: map[string]string{"news": "true", "limit": "50"}})
		if err != nil {
			t.Fatal(err)
		}
		rr, _ := search.DecodeResults(resp)
		if len(rr.Results) == 0 {
			t.Fatal("no news results")
		}
		for _, r := range rr.Results {
			if r.Kind != "news" {
				t.Errorf("non-news result %s (%s)", r.DocID, r.Kind)
			}
		}
	})

	bad := []struct {
		name string
		req  service.Request
	}{
		{"malformed op", service.Request{Op: "frobnicate", Query: "x"}},
		{"empty query", service.Request{Op: "search"}},
		{"non-numeric limit", service.Request{Query: "x", Params: map[string]string{"limit": "ten"}}},
		{"negative limit", service.Request{Query: "x", Params: map[string]string{"limit": "-1"}}},
		{"non-numeric offset", service.Request{Query: "x", Params: map[string]string{"offset": "2.5"}}},
		{"negative offset", service.Request{Query: "x", Params: map[string]string{"offset": "-3"}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Invoke(ctx, tc.req)
			if !errors.Is(err, service.ErrBadRequest) {
				t.Errorf("error %v does not wrap service.ErrBadRequest after the HTTP round-trip", err)
			}
		})
	}
}
