package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/nlu"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/webcorpus"
)

// AnalysisConfig wires the paper's canonical analytics workload — the
// Fig. 3/5 loop query → search → fetch documents → NLU-analyze →
// aggregate → persist → knowledge-base sink — onto the package's runner.
// Search and analysis go through the rich SDK's core.Client, so caching,
// circuit breaking, shedding, deadlines, and monitoring all apply to every
// call the pipeline makes. The search asks for the top Limit hits of the
// whole corpus, news and other pages alike.
type AnalysisConfig struct {
	// Client is the rich SDK client the pipeline invokes services
	// through. Required. Its tracer, if it has one, traces every run: an
	// "analysis" root span with one child span per stage per item, and
	// the SDK invocations the stages make nested inside them.
	Client *core.Client
	// Search is the name of a search service registered on Client.
	// Required for Run; unused by RunDocs.
	Search string
	// NLU lists the NLU services (registered on Client) that analyze
	// every document. The first is the primary engine used for
	// aggregation; the rest feed per-document consensus. Required.
	NLU []string
	// FetchURL is the base URL documents are fetched from over HTTP
	// (document ID appended to FetchURL + "/docs/"). Required for Run.
	FetchURL string
	// HTTPClient performs document fetches. Nil means
	// http.DefaultClient.
	HTTPClient *http.Client
	// Limit caps search results. Values < 1 mean 10.
	Limit int
	// Expand turns on the search engine's query expansion, broadening
	// the search with alias and co-occurrence terms. The engine must have
	// been built with expansion tables for this to have any effect.
	Expand bool
	// Workers is the fetch/analyze fan-out width. Values < 1 mean 4.
	Workers int
	// Store, when non-nil, persists the search snapshot (query + time +
	// documents) and every analysis so re-runs skip the services
	// entirely (paper §2.2).
	Store *docstore.Store
	// SkipFailedDocs selects the skip error policy for the fetch and
	// analyze stages: a document that cannot be fetched or analyzed is
	// dropped (and counted) instead of aborting the run. Each document is
	// tried once; search and NLU calls retry inside the SDK chain.
	SkipFailedDocs bool
	// Sentiments, when non-nil, receives the aggregated per-entity
	// sentiment after the stream drains — the pipeline's knowledge-base
	// sink (kb.StoreWebSentiments turns them into RDF facts).
	Sentiments func(ctx context.Context, sentiments []aggregate.EntitySentiment) error
}

// DocResult is one document's trip through the pipeline.
type DocResult struct {
	// Index is the document's position among the run's documents
	// (search rank for Run, slice index for RunDocs), stable across
	// skips.
	Index int
	// Doc is the fetched document.
	Doc docstore.SavedDoc
	// Analyses holds one analysis per configured NLU service, in
	// AnalysisConfig.NLU order.
	Analyses []nlu.Analysis
	// Cached counts how many of those analyses the docstore satisfied
	// without invoking a service.
	Cached int
}

// primary returns the primary engine's analysis.
func (d DocResult) primary() nlu.Analysis { return d.Analyses[0] }

// AnalysisResult is one pipeline run's full outcome.
type AnalysisResult struct {
	// Query is what was searched for (Run) or the label given to
	// RunDocs.
	Query string
	// Hits is how many documents the search returned (Run) or was
	// given (RunDocs); len(Docs) can be smaller when SkipFailedDocs
	// dropped some.
	Hits int
	// SearchID is the docstore snapshot ID ("" without a Store).
	SearchID string
	// Docs are the analyzed documents in index order; nil when none
	// survived.
	Docs []DocResult
	// Analyses are the primary-engine analyses, one per doc.
	Analyses []nlu.Analysis
	// PerDoc are all engines' analyses per doc (consensus input).
	PerDoc [][]nlu.Analysis
	// Entities, Sentiments, Keywords are the Fig. 3 aggregates over the
	// primary analyses.
	Entities   []aggregate.EntityCount
	Sentiments []aggregate.EntitySentiment
	Keywords   []nlu.Keyword
	// CachedAnalyses counts analyses served from the docstore.
	CachedAnalyses int
	// Stages are the run's per-stage counters and latency summaries, the
	// source stage (search or docs) first.
	Stages []StageStats
	// Skipped holds the errors behind dropped documents (bounded).
	Skipped []error
	// TraceID identifies the run's trace tree ("" when the run was not
	// traced or not sampled); fetch it from /v1/traces/{id}.
	TraceID string
}

func (cfg *AnalysisConfig) fill() error {
	if cfg.Client == nil {
		return fmt.Errorf("pipeline: AnalysisConfig.Client is required")
	}
	if len(cfg.NLU) == 0 {
		return fmt.Errorf("pipeline: AnalysisConfig.NLU is empty")
	}
	if cfg.Limit < 1 {
		cfg.Limit = 10
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return nil
}

func (cfg *AnalysisConfig) policy() policy {
	if cfg.SkipFailedDocs {
		return skip
	}
	return abort
}

// Run executes the full pipeline for one query: search through the SDK,
// fetch every hit over HTTP, analyze each document with every configured
// NLU service, aggregate, persist, and feed the sentiment sink.
func (cfg AnalysisConfig) Run(ctx context.Context, query string) (*AnalysisResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Search == "" {
		return nil, fmt.Errorf("pipeline: AnalysisConfig.Search is required")
	}
	if cfg.FetchURL == "" {
		return nil, fmt.Errorf("pipeline: AnalysisConfig.FetchURL is required")
	}

	ctx, root := cfg.Client.Tracer().Start(ctx, "analysis")
	root.SetAttr("query", query)
	defer root.End()

	hits, err := cfg.search(ctx, root, query)
	if err != nil {
		root.SetError(err)
		return nil, err
	}
	r := cfg.newRunner(ctx, root, len(hits))
	r.fetches, r.hits, r.base = true, hits, strings.TrimSuffix(cfg.FetchURL, "/")
	res, err := cfg.finish(ctx, r, query, "search")
	if err != nil {
		root.SetError(err)
		return nil, err
	}
	res.TraceID = root.TraceID()
	if cfg.Store != nil {
		saved := make([]docstore.SavedDoc, len(res.Docs))
		for i, d := range res.Docs {
			saved[i] = d.Doc
		}
		id, err := cfg.Store.SaveSearch(query, cfg.Search, saved)
		if err != nil {
			return nil, err
		}
		res.SearchID = id
	}
	return res, nil
}

// search is Run's source stage: one SDK invocation under a "search" span,
// whose hits are the run's documents in rank order.
func (cfg *AnalysisConfig) search(ctx context.Context, root trace.Span, query string) ([]search.Result, error) {
	sp := root.Child("search")
	defer sp.End()
	if sp.Recording() {
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	params := map[string]string{"limit": strconv.Itoa(cfg.Limit)}
	if cfg.Expand {
		params["expand"] = "true"
	}
	req := service.Request{Op: "search", Query: query, Params: params}
	resp, err := cfg.Client.Invoke(ctx, cfg.Search, req)
	var found search.Results
	if err != nil {
		err = fmt.Errorf("search %q: %w", query, err)
	} else {
		found, err = search.DecodeResults(resp)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		sp.SetError(err)
		return nil, stageError("search", err)
	}
	sp.SetInt("emitted", int64(len(found.Results)))
	return found.Results, nil
}

// RunDocs executes the analyze → aggregate → sink tail of the pipeline
// over already-fetched documents — re-analysis of a stored search
// snapshot, or a corpus that never came from a search.
func (cfg AnalysisConfig) RunDocs(ctx context.Context, label string, docs []docstore.SavedDoc) (*AnalysisResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, root := cfg.Client.Tracer().Start(ctx, "analysis")
	root.SetAttr("query", label)
	defer root.End()
	sp := root.Child("docs")
	sp.SetInt("emitted", int64(len(docs)))
	sp.End()
	r := cfg.newRunner(ctx, root, len(docs))
	for i, d := range docs {
		r.slots[i].res = DocResult{Index: i, Doc: d}
	}
	res, err := cfg.finish(ctx, r, label, "docs")
	if err != nil {
		root.SetError(err)
		return nil, err
	}
	res.TraceID = root.TraceID()
	return res, nil
}

// finish runs r to completion and builds the answer — documents in index
// order, the aggregates over the primary analyses — and feeds the sink.
// source names the stage the documents came from.
func (cfg *AnalysisConfig) finish(ctx context.Context, r *runner, query, source string) (*AnalysisResult, error) {
	if err := r.run(); err != nil {
		return nil, err
	}
	res := &AnalysisResult{Query: query, Hits: len(r.slots)}
	r.collect(res, source)
	res.Entities = aggregate.Entities(res.Analyses)
	res.Sentiments = aggregate.Sentiments(res.Analyses)
	res.Keywords = aggregate.Keywords(res.Analyses, 10)
	if cfg.Sentiments != nil {
		if err := cfg.Sentiments(ctx, res.Sentiments); err != nil {
			return nil, fmt.Errorf("pipeline: sentiment sink: %w", err)
		}
	}
	return res, nil
}

// fetchHit is the fetch stage for one search hit: its page over HTTP,
// text extracted.
func (cfg *AnalysisConfig) fetchHit(ctx context.Context, base string, hit search.Result) (docstore.SavedDoc, error) {
	page, err := cfg.fetch(ctx, base+"/docs/"+hit.DocID)
	if err != nil {
		return docstore.SavedDoc{}, fmt.Errorf("fetch %s: %w", hit.DocID, err)
	}
	return docstore.SavedDoc{
		URL:   hit.URL,
		Title: hit.Title,
		HTML:  page,
		Text:  webcorpus.ExtractText(page),
	}, nil
}

// analyzeDoc is the analyze stage for one document: its text through
// every NLU service, via the SDK (and the docstore's analyze-once guard
// when configured). It returns the analyses in cfg.NLU order and how many
// of them the docstore held.
func (cfg *AnalysisConfig) analyzeDoc(ctx context.Context, doc *docstore.SavedDoc) ([]nlu.Analysis, int, error) {
	analyses := make([]nlu.Analysis, 0, len(cfg.NLU))
	cached := 0
	for _, name := range cfg.NLU {
		a, fromStore, err := cfg.analyzeOne(ctx, name, doc.Text)
		if err != nil {
			return nil, 0, fmt.Errorf("analyze %s with %s: %w", doc.URL, name, err)
		}
		if fromStore {
			cached++
		}
		analyses = append(analyses, a)
	}
	return analyses, cached, nil
}

// analyzeOne analyzes text with one service, preferring the docstore's
// persisted result when a Store is configured.
func (cfg *AnalysisConfig) analyzeOne(ctx context.Context, name, text string) (nlu.Analysis, bool, error) {
	if cfg.Store != nil {
		return cfg.Store.AnalyzeOnceE(text, name, func(t string) (nlu.Analysis, error) {
			return cfg.invokeNLU(ctx, name, t)
		})
	}
	a, err := cfg.invokeNLU(ctx, name, text)
	return a, false, err
}

func (cfg *AnalysisConfig) invokeNLU(ctx context.Context, name, text string) (nlu.Analysis, error) {
	resp, err := cfg.Client.Invoke(ctx, name, service.Request{Op: "analyze", Text: text})
	if err != nil {
		return nlu.Analysis{}, err
	}
	return nlu.DecodeAnalysis(resp)
}

// maxPageBytes caps how much of one fetched page is read: a search hit can
// point at anything, and the page goes whole into memory, the NLU services
// and the docstore.
const maxPageBytes = 16 << 20

func (cfg *AnalysisConfig) fetch(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := cfg.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	page, err := readPage(resp.Body, resp.ContentLength)
	if errors.Is(err, errPageTooLarge) {
		return "", fmt.Errorf("page at %s exceeds %d bytes", url, maxPageBytes)
	}
	return page, err
}

var errPageTooLarge = errors.New("page too large")

// readPage reads a page of at most maxPageBytes into one buffer, sized
// from the declared length when there is one within the cap, and returns
// the buffer as the page without copying it. The buffer has a byte to
// spare, so a body that ends where it said it would is seen to end
// without the buffer growing; one that runs on grows it as io.ReadAll
// would, up to the cap.
func readPage(body io.Reader, declared int64) (string, error) {
	if declared > maxPageBytes {
		return "", errPageTooLarge
	}
	size := 512
	if declared >= 0 {
		size = int(declared) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):min(cap(buf), maxPageBytes+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxPageBytes {
			return "", errPageTooLarge
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	if len(buf) == 0 {
		return "", nil
	}
	// Nothing writes buf after this; the string is its only reference.
	return unsafe.String(&buf[0], len(buf)), nil
}
