// Sentiment monitor: the paper's motivating analytics workload — "we have
// been using the rich SDK to determine how favorably people, companies, and
// other entities are represented on the Web" (§2.2).
//
// The Fig. 3 loop — search the (synthetic) web for a topic, fetch each
// result's HTML over real local HTTP, extract text, analyze every document
// with an NLU service, and aggregate per-entity sentiment — runs on
// internal/pipeline's runner with a bounded fetch/analyze fan-out.
// Search and analysis go through the rich SDK client, so caching and
// monitoring apply; the fetched documents, the query, and every analysis
// are persisted so the run can be repeated without re-invoking anything
// (§2.2).
//
//	go run ./examples/sentiment-monitor
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/trace"
	"repro/internal/webcorpus"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A synthetic web served over real HTTP.
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 2026, NumDocs: 300})
	web := httptest.NewServer(corpus.Handler())
	defer web.Close()

	// A search engine over that web and an NLU engine, both registered on
	// the rich SDK client as simulated remote services. The tracer turns
	// each pipeline run into one retrievable trace tree.
	tracer := trace.New(trace.WithMaxSpans(4096))
	defer tracer.Close()
	client, err := core.NewClient(core.Config{CacheTTL: time.Minute, Tracer: tracer})
	if err != nil {
		return err
	}
	defer client.Close()
	index := search.BuildIndex(corpus, search.WithExpansion(lexicon.PMIConfig{}))
	sengine := search.NewEngine("search-g", index, search.TuningG)
	sinfo := service.Info{Name: "search-g", Category: "search"}
	if err := client.Register(simsvc.New(simsvc.Config{
		Info:    sinfo,
		Latency: simsvc.Constant{D: 2 * time.Millisecond},
		Handler: sengine.Service(sinfo).Invoke,
	}), core.WithCacheable()); err != nil {
		return err
	}
	nluEngine := nlu.NewEngine(nlu.ProfileAlpha)
	ninfo := service.Info{Name: "nlu-alpha", Category: "nlu"}
	if err := client.Register(simsvc.New(simsvc.Config{
		Info:    ninfo,
		Latency: simsvc.Constant{D: 4 * time.Millisecond},
		Handler: nluEngine.Service(ninfo).Invoke,
	}), core.WithCacheable()); err != nil {
		return err
	}

	// The documents and analyses persist here, so re-running the pipeline
	// skips the services entirely.
	dir, err := os.MkdirTemp("", "sentiment-monitor-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	store, err := docstore.New(dir, nil)
	if err != nil {
		return err
	}

	// The whole loop as one pipeline run: search → fetch → analyze →
	// aggregate → persist, with 8 fetch/analyze workers.
	query := "market growth technology company"
	res, err := pipeline.AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha"},
		FetchURL: web.URL,
		Limit:    25,
		Workers:  8,
		Store:    store,
		// Query expansion pulls in documents that mention the topic only
		// through aliases or strongly co-occurring terms.
		Expand: true,
	}.Run(context.Background(), query)
	if err != nil {
		return err
	}
	fmt.Printf("query %q returned %d documents (query expansion on)\n", query, res.Hits)
	fmt.Printf("saved search snapshot %s (%d documents)\n", res.SearchID, len(res.Docs))

	// Aggregate: which entities dominate the topic, and how favorably is
	// each represented?
	byID := lexicon.ByID()
	name := func(id string) string {
		if e, ok := byID[id]; ok {
			return e.Name
		}
		return id
	}

	fmt.Println("\nmost-mentioned entities:")
	for i, e := range res.Entities {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-28s in %2d docs, %2d mentions\n", name(e.EntityID), e.Documents, e.Mentions)
	}

	// Keep only entities with enough evidence, then rank by favorability.
	var solid []aggregate.EntitySentiment
	for _, s := range res.Sentiments {
		if s.Documents >= 2 {
			solid = append(solid, s)
		}
	}
	sort.Slice(solid, func(i, j int) bool { return solid[i].MeanScore > solid[j].MeanScore })
	fmt.Println("\nhow favorably entities are represented (mean sentiment):")
	for _, s := range solid {
		bar := renderBar(s.MeanScore)
		fmt.Printf("  %-28s %+.2f %s (%d docs)\n", name(s.EntityID), s.MeanScore, bar, s.Documents)
	}

	// Top keywords across the result set (not disambiguated, per §2.2).
	fmt.Println("\ntop keywords:")
	for _, kw := range res.Keywords[:min(8, len(res.Keywords))] {
		fmt.Printf("  %-16s %d\n", kw.Text, kw.Count)
	}

	// The runner's per-stage view of the run.
	fmt.Println("\npipeline stages:")
	for _, s := range res.Stages {
		fmt.Printf("  %-10s in %2d out %2d  mean %6s  p95 %6s\n",
			s.Name, s.In, s.Out, s.Mean.Round(time.Microsecond), s.P95.Round(time.Microsecond))
	}

	// The same run as one trace tree: the analysis root span, a stage span
	// per document, and every SDK invocation nested inside its stage.
	if full, ok := tracer.Trace(res.TraceID); ok {
		counts := map[string]int{}
		for _, s := range full.Spans {
			counts[s.Name]++
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("\ntrace %s: %d spans in %.0fms\n", full.ID, len(full.Spans), full.DurationMS)
		for _, n := range names {
			fmt.Printf("  %-18s × %d\n", n, counts[n])
		}
	}

	// Re-run: the docstore satisfies every analysis, the SDK cache the
	// search — no service is invoked again.
	before := client.Monitor("nlu-alpha").Count()
	again, err := pipeline.AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha"},
		FetchURL: web.URL,
		Limit:    25,
		Workers:  8,
		Store:    store,
		Expand:   true,
	}.Run(context.Background(), query)
	if err != nil {
		return err
	}
	fmt.Printf("\nre-run: %d/%d analyses served from the store, %d new NLU invocations\n",
		again.CachedAnalyses, len(again.Docs), client.Monitor("nlu-alpha").Count()-before)
	return nil
}

func renderBar(score float64) string {
	const width = 10
	n := int((score + 1) / 2 * width)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	bar := make([]byte, width)
	for i := range bar {
		if i < n {
			bar[i] = '#'
		} else {
			bar[i] = '.'
		}
	}
	return string(bar)
}
