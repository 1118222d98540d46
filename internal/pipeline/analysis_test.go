package pipeline

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/nlu"
	"repro/internal/raceflag"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/webcorpus"
)

// newAnalysisEnv builds the canonical test environment for the analysis
// pipeline: a corpus served over HTTP, one search engine and three NLU
// engines registered on a rich SDK client (tiny latencies for test speed).
func newAnalysisEnv(t *testing.T) (*core.Client, *httptest.Server) {
	t.Helper()
	return newAnalysisEnvCfg(t, core.Config{CacheTTL: time.Minute})
}

// newAnalysisEnvCfg is newAnalysisEnv with a caller-supplied client config.
func newAnalysisEnvCfg(t *testing.T, ccfg core.Config) (*core.Client, *httptest.Server) {
	t.Helper()
	client, err := core.NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	corpus := webcorpus.Generate(webcorpus.Config{Seed: 42, NumDocs: 80})
	index := search.BuildIndex(corpus)
	sengine := search.NewEngine("search-g", index, search.TuningG)
	sinfo := service.Info{Name: "search-g", Category: "search"}
	if err := client.Register(simsvc.New(simsvc.Config{
		Info:    sinfo,
		Latency: simsvc.Constant{D: time.Millisecond},
		Handler: sengine.Service(sinfo).Invoke,
	}), core.WithCacheable()); err != nil {
		t.Fatal(err)
	}
	for i, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileBeta, nlu.ProfileGamma} {
		engine := nlu.NewEngine(p)
		info := service.Info{Name: p.Name, Category: "nlu"}
		if err := client.Register(simsvc.New(simsvc.Config{
			Info:    info,
			Latency: simsvc.Constant{D: time.Millisecond},
			Seed:    int64(i),
			Handler: engine.Service(info).Invoke,
		}), core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
	}

	web := httptest.NewServer(corpus.Handler())
	t.Cleanup(web.Close)
	return client, web
}

func TestAnalysisRunEndToEnd(t *testing.T) {
	client, web := newAnalysisEnv(t)
	cfg := AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha", "nlu-beta", "nlu-gamma"},
		FetchURL: web.URL,
		Limit:    8,
		Workers:  4,
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits == 0 || len(res.Docs) != res.Hits {
		t.Fatalf("hits = %d, docs = %d", res.Hits, len(res.Docs))
	}
	// Stream order survives the parallel fetch/analyze fan-out.
	for i, d := range res.Docs {
		if d.Index != i {
			t.Fatalf("docs out of order: Docs[%d].Index = %d", i, d.Index)
		}
		if len(d.Analyses) != 3 {
			t.Fatalf("Docs[%d] has %d analyses, want 3", i, len(d.Analyses))
		}
		if d.Doc.Text == "" {
			t.Fatalf("Docs[%d] has empty extracted text", i)
		}
	}
	if len(res.Analyses) != len(res.Docs) || len(res.PerDoc) != len(res.Docs) {
		t.Fatalf("Analyses = %d, PerDoc = %d, want %d each", len(res.Analyses), len(res.PerDoc), len(res.Docs))
	}
	if len(res.Entities) == 0 || len(res.Sentiments) == 0 {
		t.Error("aggregates are empty")
	}
	// Every stage reported counters; search emitted as many as fetch/analyze
	// consumed.
	if len(res.Stages) != 4 {
		t.Fatalf("Stages = %+v, want 4 stages", res.Stages)
	}
	for _, s := range res.Stages {
		if s.Out == 0 {
			t.Errorf("stage %s processed nothing", s.Name)
		}
	}
	// The SDK saw every invocation: 1 search + hits×3 analyses.
	if got := client.Monitor("search-g").Count(); got != 1 {
		t.Errorf("search-g monitored count = %d, want 1", got)
	}
	for _, name := range cfg.NLU {
		if got := client.Monitor(name).Count(); got != uint64(res.Hits) {
			t.Errorf("%s monitored count = %d, want %d", name, got, res.Hits)
		}
	}
}

func TestAnalysisRunPersistsAndReusesStore(t *testing.T) {
	client, web := newAnalysisEnv(t)
	store, err := docstore.New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha"},
		FetchURL: web.URL,
		Limit:    5,
		Store:    store,
	}
	ctx := context.Background()
	first, err := cfg.Run(ctx, "company revenue")
	if err != nil {
		t.Fatal(err)
	}
	if first.SearchID == "" {
		t.Fatal("no docstore snapshot ID")
	}
	if first.CachedAnalyses != 0 {
		t.Errorf("cold run reported %d cached analyses", first.CachedAnalyses)
	}
	saved, err := store.LoadSearch(first.SearchID)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Docs) != len(first.Docs) {
		t.Errorf("snapshot has %d docs, run produced %d", len(saved.Docs), len(first.Docs))
	}

	// Re-running analyzes nothing: every analysis comes from the store.
	before := client.Monitor("nlu-alpha").Count()
	second, err := cfg.Run(ctx, "company revenue")
	if err != nil {
		t.Fatal(err)
	}
	if second.CachedAnalyses != len(second.Docs) {
		t.Errorf("warm run cached %d of %d analyses", second.CachedAnalyses, len(second.Docs))
	}
	if after := client.Monitor("nlu-alpha").Count(); after != before {
		t.Errorf("warm run still invoked the NLU service %d times", after-before)
	}
}

func TestAnalysisRunDocs(t *testing.T) {
	client, _ := newAnalysisEnv(t)
	docs := []docstore.SavedDoc{
		{URL: "u1", Title: "t1", Text: "Acme Corporation reported excellent growth in Germany."},
		{URL: "u2", Title: "t2", Text: "Globex suffered a terrible decline in France."},
	}
	cfg := AnalysisConfig{
		Client: client,
		NLU:    []string{"nlu-alpha", "nlu-beta"},
	}
	res, err := cfg.RunDocs(context.Background(), "prepared", docs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Query != "prepared" || res.Hits != 2 || len(res.Docs) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Docs[0].Doc.URL != "u1" || res.Docs[1].Doc.URL != "u2" {
		t.Error("RunDocs reordered its input")
	}
	if len(res.PerDoc[0]) != 2 {
		t.Errorf("PerDoc[0] = %d analyses, want 2", len(res.PerDoc[0]))
	}
}

func TestAnalysisSkipFailedDocs(t *testing.T) {
	client, web := newAnalysisEnv(t)
	// A proxy in front of the corpus that refuses every other document.
	flip := 0
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flip++
		if flip%2 == 0 {
			http.Error(w, "gone", http.StatusNotFound)
			return
		}
		resp, err := http.Get(web.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	cfg := AnalysisConfig{
		Client:         client,
		Search:         "search-g",
		NLU:            []string{"nlu-alpha"},
		FetchURL:       proxy.URL,
		Limit:          6,
		Workers:        1, // deterministic alternation through the proxy
		SkipFailedDocs: true,
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) >= res.Hits {
		t.Fatalf("docs = %d, hits = %d: nothing was skipped", len(res.Docs), res.Hits)
	}
	if len(res.Skipped) == 0 {
		t.Fatal("skip policy recorded no errors")
	}
	for _, err := range res.Skipped {
		if !strings.Contains(err.Error(), "HTTP 404") {
			t.Errorf("unexpected skip cause: %v", err)
		}
	}
	// Surviving docs keep their original search ranks.
	last := -1
	for _, d := range res.Docs {
		if d.Index <= last {
			t.Fatalf("indices not strictly increasing: %d after %d", d.Index, last)
		}
		last = d.Index
	}
}

func TestAnalysisAbortOnFetchFailure(t *testing.T) {
	client, _ := newAnalysisEnv(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	cfg := AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha"},
		FetchURL: dead.URL,
		Limit:    3,
	}
	_, err := cfg.Run(context.Background(), "market technology growth")
	if err == nil || !strings.Contains(err.Error(), "fetch") {
		t.Fatalf("err = %v, want fetch abort", err)
	}
}

func TestAnalysisSentimentSink(t *testing.T) {
	client, web := newAnalysisEnv(t)
	var sunk []aggregate.EntitySentiment
	cfg := AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha"},
		FetchURL: web.URL,
		Limit:    5,
		Sentiments: func(_ context.Context, s []aggregate.EntitySentiment) error {
			sunk = s
			return nil
		},
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if len(sunk) != len(res.Sentiments) {
		t.Fatalf("sink received %d sentiments, result has %d", len(sunk), len(res.Sentiments))
	}

	// A failing sink aborts the run.
	boom := errors.New("kb down")
	cfg.Sentiments = func(context.Context, []aggregate.EntitySentiment) error { return boom }
	if _, err := cfg.Run(context.Background(), "market technology growth"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink failure", err)
	}
}

func TestAnalysisConfigValidation(t *testing.T) {
	client, _ := newAnalysisEnv(t)
	for name, cfg := range map[string]AnalysisConfig{
		"no client": {Search: "search-g", NLU: []string{"nlu-alpha"}, FetchURL: "http://x"},
		"no nlu":    {Client: client, Search: "search-g", FetchURL: "http://x"},
		"no search": {Client: client, NLU: []string{"nlu-alpha"}, FetchURL: "http://x"},
		"no fetch":  {Client: client, Search: "search-g", NLU: []string{"nlu-alpha"}},
	} {
		if _, err := cfg.Run(context.Background(), "q"); err == nil {
			t.Errorf("%s: Run succeeded, want config error", name)
		}
	}
}

// TestAnalysisStatsRegisterNoPhantomStage: a run reports its four stages
// in wiring order with exact counts, and the source stage, which records
// no latency, reports none.
func TestAnalysisStatsRegisterNoPhantomStage(t *testing.T) {
	client, web := newAnalysisEnv(t)
	cfg := AnalysisConfig{
		Client: client, Search: "search-g", NLU: []string{"nlu-alpha"},
		FetchURL: web.URL, Limit: 6,
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	hits := int64(res.Hits)
	want := []StageStats{
		{Name: "search", In: 0, Out: hits},
		{Name: "fetch", In: hits, Out: hits},
		{Name: "analyze", In: hits, Out: hits},
		{Name: "aggregate", In: hits, Out: hits},
	}
	if len(res.Stages) != len(want) {
		t.Fatalf("Stages = %+v, want the four stages in wiring order", res.Stages)
	}
	for i, st := range res.Stages {
		if st.Name != want[i].Name || st.In != want[i].In || st.Out != want[i].Out {
			t.Errorf("Stages[%d] = %s in=%d out=%d, want %s in=%d out=%d", i, st.Name, st.In, st.Out, want[i].Name, want[i].In, want[i].Out)
		}
		if recorded := st.Name != "search"; recorded != (st.Mean > 0) {
			t.Errorf("Stages[%d] %s: Mean = %v", i, st.Name, st.Mean)
		}
	}

	// RunDocs' source stage is "docs".
	docs, err := cfg.RunDocs(context.Background(), "prepared", []docstore.SavedDoc{{URL: "u1", Text: "Acme Corporation grew."}})
	if err != nil {
		t.Fatal(err)
	}
	if st := docs.Stages; len(st) != 3 || st[0].Name != "docs" || st[0].Mean != 0 {
		t.Errorf("RunDocs Stages = %+v, want docs, analyze, aggregate with no latency at the source", st)
	}
}

// TestAnalysisFetchReadsUnderACap: a search hit can point at a body with
// no end. The fetch stage reads maxPageBytes of it and one byte more is an
// error, which the run's error policy then treats like any failed fetch.
func TestAnalysisFetchReadsUnderACap(t *testing.T) {
	client, web := newAnalysisEnv(t)
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = 'a'
	}
	var oversized atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if oversized.Add(1) != 1 {
			http.Redirect(w, r, web.URL+r.URL.Path, http.StatusTemporaryRedirect)
			return
		}
		// maxPageBytes + 1 bytes, chunked: no Content-Length to refuse by.
		for sent := 0; sent <= maxPageBytes; sent += len(chunk) {
			if _, err := w.Write(chunk[:min(len(chunk), maxPageBytes+1-sent)]); err != nil {
				return
			}
		}
	}))
	defer proxy.Close()
	cfg := AnalysisConfig{
		Client: client, Search: "search-g", NLU: []string{"nlu-alpha"},
		FetchURL: proxy.URL, Limit: 4, Workers: 1, SkipFailedDocs: true,
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != res.Hits-1 || len(res.Skipped) != 1 {
		t.Fatalf("docs = %d of %d hits, %d skipped; want exactly the oversized page skipped", len(res.Docs), res.Hits, len(res.Skipped))
	}
	if msg := res.Skipped[0].Error(); !strings.Contains(msg, proxy.URL+"/docs/") || !strings.Contains(msg, "exceeds") {
		t.Errorf("skip cause %q does not name the page and the cap", msg)
	}
	if st := res.Stages[1]; st.Name != "fetch" || st.Skipped != 1 {
		t.Errorf("fetch stage stats = %+v, want 1 skipped", st)
	}

	// Under the default policy the same page aborts the run.
	oversized.Store(0)
	cfg.SkipFailedDocs = false
	if _, err := cfg.Run(context.Background(), "market technology growth"); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want the oversized page to abort the run", err)
	}

	// A page of exactly the cap is a page.
	exact := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for sent := 0; sent < maxPageBytes; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer exact.Close()
	cfg.HTTPClient = http.DefaultClient
	if page, err := cfg.fetch(context.Background(), exact.URL); err != nil || len(page) != maxPageBytes {
		t.Errorf("fetch of a page at the cap = %d bytes, %v", len(page), err)
	}
}

// TestAnalysisRunCostFollowsTheRun: one run's bookkeeping — four stages'
// counters and three latency monitors built, fed ten items and read once
// — used to allocate ≥ 570 KB before a single document was looked at.
func TestAnalysisRunCostFollowsTheRun(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not the product's under the race detector")
	}
	client, err := core.NewClient(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reply, err := nlu.Analysis{Language: "en"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stub := service.Func{
		Meta: service.Info{Name: "nlu-stub", Category: "nlu"},
		Fn:   func(context.Context, service.Request) (service.Response, error) { return reply, nil },
	}
	if err := client.Register(stub); err != nil {
		t.Fatal(err)
	}
	docs := make([]docstore.SavedDoc, 10)
	for i := range docs {
		docs[i] = docstore.SavedDoc{URL: "u" + strconv.Itoa(i), Text: "Acme grew."}
	}
	cfg := AnalysisConfig{Client: client, NLU: []string{"nlu-stub"}}
	run := func() {
		res, err := cfg.RunDocs(context.Background(), "cost", docs)
		if err != nil || len(res.Docs) != len(docs) {
			t.Fatalf("RunDocs = %v, %v", res, err)
		}
	}
	run() // the SDK's own per-service state is built on first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("RunDocs over %d documents: %d bytes", len(docs), got)
	if got >= 128<<10 {
		t.Errorf("RunDocs over %d small documents allocated %d bytes, want < 128 KB", len(docs), got)
	}
}
