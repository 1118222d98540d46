package search

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/service"
)

// Engine is one search-engine profile over a shared index. Distinct tunings
// produce distinct rankings, giving the SDK genuinely different services to
// choose among (the paper lets users pick Google, Bing, or Yahoo).
type Engine struct {
	name   string
	index  *Index
	params Params
}

// Stock engine tunings. The expansion fields only apply to searches that
// opt in (Options.Expand against an index built WithExpansion); they make
// the profiles diverge on how aggressively they broaden a query as well
// as on how they score it.
var (
	// TuningG approximates a modern BM25 web ranker with title boost and
	// moderate query expansion.
	TuningG = Params{Scoring: BM25, K1: 1.2, B: 0.75, TitleBoost: 2, ExpandWeight: 0.35, ExpandTerms: 3}
	// TuningB is a TF-IDF ranker with mild title boost and conservative
	// expansion.
	TuningB = Params{Scoring: TFIDF, TitleBoost: 1.5, ExpandWeight: 0.2, ExpandTerms: 2}
	// TuningY is BM25 with heavier saturation, no title boost, and the
	// broadest expansion.
	TuningY = Params{Scoring: BM25, K1: 2.0, B: 0.5, ExpandWeight: 0.5, ExpandTerms: 4}
)

// NewEngine returns a named engine over idx with the given tuning.
func NewEngine(name string, idx *Index, params Params) *Engine {
	return &Engine{name: name, index: idx, params: params}
}

// Name returns the engine name.
func (e *Engine) Name() string { return e.name }

// Search runs a query with this engine's tuning.
func (e *Engine) Search(query string, opts Options) []Result {
	return e.index.Search(query, e.params, opts)
}

// Results is the JSON body returned by the search service.
type Results struct {
	Engine  string   `json:"engine"`
	Query   string   `json:"query"`
	Results []Result `json:"results"`
}

// DecodeResults parses a search service response. What the service
// writes decodes on a reflection-free fast path; any other body goes to
// encoding/json.
func DecodeResults(resp service.Response) (Results, error) {
	if r, ok := decodePlain(resp.Body); ok {
		return r, nil
	}
	var r Results
	if err := json.Unmarshal(resp.Body, &r); err != nil {
		return Results{}, fmt.Errorf("search: decode results: %w", err)
	}
	return r, nil
}

// Service wraps the engine as a service.Service understanding op "search"
// with Query set; Params may carry "limit" (int), "offset" (int), "news"
// ("true"), and "expand" ("true").
func (e *Engine) Service(info service.Info) service.Service {
	return service.Func{
		Meta: info,
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			if req.Op != "search" && req.Op != "" {
				return service.Response{}, fmt.Errorf("search: unsupported op %q: %w", req.Op, service.ErrBadRequest)
			}
			if req.Query == "" {
				return service.Response{}, fmt.Errorf("search: empty query: %w", service.ErrBadRequest)
			}
			var opts Options
			if v := req.Params["limit"]; v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return service.Response{}, fmt.Errorf("search: bad limit %q: %w", v, service.ErrBadRequest)
				}
				opts.Limit = n
			}
			if v := req.Params["offset"]; v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return service.Response{}, fmt.Errorf("search: bad offset %q: %w", v, service.ErrBadRequest)
				}
				opts.Offset = n
			}
			if req.Params["news"] == "true" {
				opts.NewsOnly = true
			}
			if req.Params["expand"] == "true" {
				opts.Expand = true
			}
			body, err := json.Marshal(Results{
				Engine:  e.name,
				Query:   req.Query,
				Results: e.Search(req.Query, opts),
			})
			if err != nil {
				return service.Response{}, fmt.Errorf("search: encode results: %w", err)
			}
			return service.Response{Body: body, ContentType: "application/json"}, nil
		},
	}
}
