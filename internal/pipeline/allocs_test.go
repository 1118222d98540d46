package pipeline

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nlu"
	"repro/internal/raceflag"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// pageTransport serves pre-rendered corpus pages in process: no sockets,
// no handler, one response and one body per fetch, so what a fetch costs
// beyond that is the pipeline's own.
type pageTransport map[string]string

// pageBody is a page as a response body.
type pageBody struct{ strings.Reader }

func (*pageBody) Close() error { return nil }

func (t pageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	page, ok := t[req.URL.Path]
	if !ok {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: req}, nil
	}
	body := &pageBody{}
	body.Reset(page)
	return &http.Response{
		StatusCode:    http.StatusOK,
		ContentLength: int64(len(page)),
		Body:          body,
		Request:       req,
	}, nil
}

// TestAnalysisRunAllocsPerDoc pins what one more document costs a warm
// Run: the same query at Limit 10 and Limit 20, pages served in process
// and both NLU answers already in the SDK cache, so the difference
// between the two runs is the runner's per-document work, one page read and
// text extraction, two cache keys and hits, two answer decodes and the
// aggregate fold.
func TestAnalysisRunAllocsPerDoc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	client, err := core.NewClient(core.Config{CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 1, NumDocs: 400})
	sinfo := service.Info{Name: "search-g", Category: "search"}
	engine := search.NewEngine(sinfo.Name, search.BuildIndex(corpus), search.TuningG)
	if err := client.Register(service.Func{Meta: sinfo, Fn: engine.Service(sinfo).Invoke}, core.WithCacheable()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileGamma} {
		info := service.Info{Name: p.Name, Category: "nlu"}
		if err := client.Register(service.Func{Meta: info, Fn: nlu.NewEngine(p).Service(info).Invoke}, core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
	}
	pages := make(pageTransport, len(corpus.Docs))
	for _, d := range corpus.Docs {
		pages["/docs/"+d.ID] = webcorpus.RenderHTML(d)
	}
	cfg := AnalysisConfig{
		Client: client, Search: sinfo.Name, NLU: names,
		FetchURL: "http://web.local", HTTPClient: &http.Client{Transport: pages},
	}
	const query = "market technology growth"
	allocs := func(limit int) float64 {
		run := cfg
		run.Limit = limit
		do := func() {
			res, err := run.Run(context.Background(), query)
			if err != nil || len(res.Docs) != limit {
				t.Fatalf("Run(Limit %d) = %d docs, %v", limit, len(res.Docs), err)
			}
		}
		do() // fills the search and NLU caches
		return testing.AllocsPerRun(50, do)
	}
	a10, a20 := allocs(10), allocs(20)
	perDoc := (a20 - a10) / 10
	perRun := a10 - 10*perDoc
	t.Logf("Run: %.1f allocs at Limit 10, %.1f at Limit 20: %.1f per document, %.1f per run", a10, a20, perDoc, perRun)
	if perDoc > 32 {
		t.Errorf("a warm Run allocates %.1f times per document, want ≤ 32", perDoc)
	}
	if perRun > 50 {
		t.Errorf("a warm Run allocates %.1f times per run beyond its documents, want ≤ 50", perRun)
	}
}
