package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/kb"
	"repro/internal/kvstore"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/remotestore"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/spell"
	"repro/internal/vision"
	"repro/internal/webcorpus"
)

// buildFullClient wires every built-in service family into one SDK client,
// matching cmd/richsdk-server's production wiring (tiny latencies for test
// speed).
func buildFullClient(t *testing.T) (*core.Client, *webcorpus.Corpus) {
	t.Helper()
	client, err := core.NewClient(core.Config{CacheTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	for i, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileBeta, nlu.ProfileGamma} {
		engine := nlu.NewEngine(p)
		info := service.Info{Name: p.Name, Category: "nlu", CostPerCall: 0.001 * float64(i+1)}
		sim := simsvc.New(simsvc.Config{
			Info:    info,
			Latency: simsvc.Constant{D: time.Duration(i+1) * time.Millisecond},
			Seed:    int64(i),
			Handler: engine.Service(info).Invoke,
		})
		if err := client.Register(sim, core.WithCacheable(),
			core.WithRetry(failover.RetryPolicy{MaxAttempts: 2})); err != nil {
			t.Fatal(err)
		}
	}
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 123, NumDocs: 120})
	index := search.BuildIndex(corpus)
	for i, cfg := range []struct {
		name   string
		params search.Params
	}{{"search-g", search.TuningG}, {"search-b", search.TuningB}} {
		engine := search.NewEngine(cfg.name, index, cfg.params)
		info := service.Info{Name: cfg.name, Category: "search", CostPerCall: 0.0005}
		sim := simsvc.New(simsvc.Config{
			Info:    info,
			Latency: simsvc.Constant{D: time.Millisecond},
			Seed:    int64(100 + i),
			Handler: engine.Service(info).Invoke,
		})
		if err := client.Register(sim, core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
	}
	checker := spell.NewChecker(lexicon.Dictionary(), nil)
	if err := client.Register(checker.Service(service.Info{Name: "spell", Category: "spell"}), core.WithCacheable()); err != nil {
		t.Fatal(err)
	}
	for i, p := range []vision.Profile{vision.ProfileSharp, vision.ProfileFast} {
		engine := vision.NewEngine(p)
		info := service.Info{Name: p.Name, Category: "vision", CostPerCall: 0.002}
		sim := simsvc.New(simsvc.Config{
			Info:    info,
			Latency: simsvc.Constant{D: time.Duration(i+1) * time.Millisecond},
			Seed:    int64(200 + i),
			Handler: engine.Service(info).Invoke,
		})
		if err := client.Register(sim, core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
	}
	return client, corpus
}

// TestHTTPFacadeFullStack drives the SDK purely over HTTP, the way an
// application in another language would (paper §2).
func TestHTTPFacadeFullStack(t *testing.T) {
	client, _ := buildFullClient(t)
	srv := httptest.NewServer(core.NewAPI(client))
	defer srv.Close()

	post := func(path string, body any) map[string]json.RawMessage {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s -> HTTP %d: %s", path, resp.StatusCode, raw)
		}
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// 1. Search through the facade.
	searchOut := post("/v1/invoke", map[string]any{
		"service": "search-g",
		"request": map[string]any{"op": "search", "query": "Acme market growth", "params": map[string]string{"limit": "5"}},
	})
	// Body is []byte and therefore base64 in JSON: decode through the
	// Response envelope exactly as a foreign-language client would.
	var sresp service.Response
	rawSearch, _ := json.Marshal(searchOut)
	if err := json.Unmarshal(rawSearch, &sresp); err != nil {
		t.Fatal(err)
	}
	results, err := search.DecodeResults(sresp)
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Results) == 0 {
		t.Fatal("search returned nothing")
	}

	// 2. NLU category invocation with ranked failover.
	nluOut := post("/v1/invoke-category", map[string]any{
		"category": "nlu",
		"request":  map[string]any{"op": "analyze", "text": "Acme Corporation reported excellent growth in Germany."},
	})
	var wrapped struct {
		Response service.Response `json:"response"`
	}
	raw, _ := json.Marshal(nluOut)
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		t.Fatal(err)
	}
	analysis, err := nlu.DecodeAnalysis(wrapped.Response)
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.Entities) == 0 {
		t.Error("facade NLU analysis found no entities")
	}

	// 3. Vision through the facade (binary payload via JSON []byte).
	img := vision.Generate("itest", 5)
	visionOut := post("/v1/invoke", map[string]any{
		"service": "vision-sharp",
		"request": map[string]any{"op": "recognize", "key": img.ID, "data": img.Encode()},
	})
	var vresp service.Response
	raw, _ = json.Marshal(visionOut)
	if err := json.Unmarshal(raw, &vresp); err != nil {
		t.Fatal(err)
	}
	rec, err := vision.DecodeRecognition(vresp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tags) == 0 {
		t.Error("vision returned no tags")
	}

	// 4. Ranking endpoint covers every category.
	for _, cat := range []string{"nlu", "search", "vision"} {
		out := post("/v1/rank", map[string]any{"category": cat})
		if len(out["ranked"]) == 0 {
			t.Errorf("rank(%s) empty", cat)
		}
	}

	// 5. Stats reflect the traffic.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Services []struct {
			Name  string `json:"Name"`
			Count int    `json:"Count"`
		} `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range stats.Services {
		total += s.Count
	}
	if total == 0 {
		t.Error("no monitored invocations recorded")
	}
}

func mustField(t *testing.T, m map[string]json.RawMessage, key string) json.RawMessage {
	t.Helper()
	v, ok := m[key]
	if !ok {
		t.Fatalf("missing field %q in %v", key, m)
	}
	return v
}

// TestSearchAnalyzeAggregateKBPipeline runs the paper's full analytics
// pipeline in-process: search -> fetch over HTTP -> extract -> multi-
// service analysis -> consensus -> aggregate sentiment -> knowledge base
// facts -> inference -> cloud persistence with offline sync.
func TestSearchAnalyzeAggregateKBPipeline(t *testing.T) {
	client, corpus := buildFullClient(t)
	web := httptest.NewServer(corpus.Handler())
	defer web.Close()
	ctx := context.Background()

	// The knowledge base doubles as the pipeline's sentiment sink: the
	// aggregated per-entity sentiment becomes RDF facts as the stream
	// drains.
	base, err := kb.New(kb.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Search via the SDK, fetch each hit over real HTTP, and analyze with
	// every NLU service — the Fig. 3 loop, on the pipeline's runner with a
	// bounded fan-out. Search and analysis calls stay cached and monitored
	// because the pipeline invokes them through the same client.
	res, err := pipeline.AnalysisConfig{
		Client:     client,
		Search:     "search-g",
		NLU:        []string{"nlu-alpha", "nlu-beta", "nlu-gamma"},
		FetchURL:   web.URL,
		Limit:      10,
		Workers:    4,
		Sentiments: base.StoreWebSentiments,
	}.Run(ctx, "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Fatal("no search results")
	}
	perDoc := res.PerDoc

	// Consensus-based quality rating (paper §5 future work) feeds the
	// SDK's quality scores.
	ratings := aggregate.RateByConsensus(perDoc, 0.5)
	if len(ratings) != 3 {
		t.Fatalf("ratings = %+v", ratings)
	}
	for _, r := range ratings {
		client.Monitor(r.Service).RecordQuality(r.Agreement)
	}
	// Quality now influences ranking.
	ranked, err := client.Rank("nlu", service.Request{Op: "analyze", Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %+v", ranked)
	}

	// The sink already turned the aggregated sentiment into facts.
	if len(res.Sentiments) == 0 {
		t.Fatal("no aggregated sentiments")
	}
	moods, err := base.Query("SELECT ?e ?m WHERE { ?e <kb:webSentiment> ?m }")
	if err != nil {
		t.Fatal(err)
	}
	if len(moods.Rows) != len(res.Sentiments) {
		t.Fatalf("sink stored %d webSentiment facts, want %d", len(moods.Rows), len(res.Sentiments))
	}
	// A user rule over the web-derived facts.
	err = base.AddRule(rdf.Rule{
		Name: "pr-risk",
		Premises: []rdf.Statement{
			{S: rdf.NewVar("e"), P: rdf.NewIRI("kb:webSentiment"), O: rdf.NewLiteral("unfavorable")},
		},
		Conclusions: []rdf.Statement{
			{S: rdf.NewVar("e"), P: rdf.NewIRI("kb:needsAttention"), O: rdf.NewLiteral("true")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Infer(); err != nil {
		t.Fatal(err)
	}

	// Persist the knowledge remotely with an outage in the middle.
	cloud := remotestore.NewServer(kvstore.NewMemory())
	cloudSrv := httptest.NewServer(cloud.Handler())
	defer cloudSrv.Close()
	rclient, err := remotestore.NewCluster(remotestore.ClusterConfig{
		Nodes: []string{cloudSrv.URL},
		Local: kvstore.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rclient.Close()
	cloud.SetDown(true)
	graphCSV := new(bytes.Buffer)
	for i, stmt := range base.Graph().All() {
		fmt.Fprintf(graphCSV, "%s\n", stmt)
		if i == 0 {
			// First write trips the outage detector.
			if err := rclient.Put("kb-snapshot", graphCSV.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rclient.Put("kb-snapshot", graphCSV.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !rclient.Offline() {
		t.Fatal("client should be offline during the outage")
	}
	cloud.SetDown(false)
	if _, err := rclient.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := rclient.Get("kb-snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, graphCSV.Bytes()) {
		t.Error("cloud snapshot does not match the knowledge base export")
	}

	// Spell-check a note through the SDK for good measure.
	resp, err := client.Invoke(ctx, "spell", service.Request{Op: "spellcheck", Text: "the markte improved"})
	if err != nil {
		t.Fatal(err)
	}
	corrs, err := spell.DecodeCorrections(resp)
	if err != nil || len(corrs) != 1 {
		t.Errorf("spell through SDK = (%v, %v)", corrs, err)
	}

	// The whole pipeline ran against monitored services: one search
	// engine, three NLU engines, and the spell checker.
	if len(client.Stats()) < 5 {
		t.Errorf("expected stats for >= 5 services, got %d", len(client.Stats()))
	}
}

// TestKBConfidencePipeline exercises accuracy levels end to end: dubious
// web-derived facts stay quarantined below the trust threshold.
func TestKBConfidencePipeline(t *testing.T) {
	base, err := kb.New(kb.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Trusted taxonomy, dubious web claim.
	if err := base.AddFactWithConfidence("kb:acme", rdf.RDFSSubClassOf, "kb:company", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := base.AddFactWithConfidence("kb:company", rdf.RDFSSubClassOf, "kb:organization", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := base.AddFactWithConfidence("kb:organization", rdf.RDFSSubClassOf, "kb:shell-scheme", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := base.InferWithConfidence(0.5); err != nil {
		t.Fatal(err)
	}
	trusted := rdf.Statement{S: rdf.NewIRI("kb:acme"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: rdf.NewIRI("kb:organization")}
	dubious := rdf.Statement{S: rdf.NewIRI("kb:acme"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: rdf.NewIRI("kb:shell-scheme")}
	if !base.Graph().Has(trusted) {
		t.Error("trusted closure missing")
	}
	if base.Graph().Has(dubious) {
		t.Error("dubious inference asserted despite threshold")
	}
}

// TestBreakerAndDeadlineThroughFacade exercises the two new pipeline stages
// end to end over HTTP, the way richsdk-server deploys them: a scripted
// outage trips the circuit breaker (503 + /v1/breakers reports it open),
// recovery closes it, and a service that turns unresponsive after training
// is cut off by the predicted-latency deadline (504).
func TestBreakerAndDeadlineThroughFacade(t *testing.T) {
	client, err := core.NewClient(core.Config{
		Breaker:      core.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		Deadline:     core.DeadlineConfig{Factor: 2, Floor: 30 * time.Millisecond},
		DefaultRetry: failover.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	flaky := simsvc.New(simsvc.Config{Info: service.Info{Name: "flaky", Category: "nlu"}})
	if err := client.Register(flaky); err != nil {
		t.Fatal(err)
	}
	var hang atomic.Bool
	moody := service.Func{
		Meta: service.Info{Name: "moody", Category: "search"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			if hang.Load() {
				<-ctx.Done()
				return service.Response{}, fmt.Errorf("hung: %w: %w", service.ErrUnavailable, ctx.Err())
			}
			time.Sleep(2 * time.Millisecond)
			return service.Response{Body: []byte("ok")}, nil
		},
	}
	if err := client.Register(moody); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(core.NewAPI(client))
	defer srv.Close()

	invoke := func(svc, text string) int {
		t.Helper()
		body, _ := json.Marshal(map[string]any{
			"service": svc,
			"request": map[string]any{"op": "x", "text": text},
		})
		resp, err := http.Post(srv.URL+"/v1/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}

	// Trip the breaker with a scripted outage.
	flaky.SetDown(true)
	for i := 0; i < 2; i++ {
		if got := invoke("flaky", "x"); got != http.StatusServiceUnavailable {
			t.Fatalf("outage invoke %d -> HTTP %d, want 503", i, got)
		}
	}
	before := flaky.Invocations()
	if got := invoke("flaky", "x"); got != http.StatusServiceUnavailable {
		t.Fatalf("tripped invoke -> HTTP %d, want 503", got)
	}
	if flaky.Invocations() != before {
		t.Error("open breaker still reached the service")
	}
	bresp, err := http.Get(srv.URL + "/v1/breakers")
	if err != nil {
		t.Fatal(err)
	}
	var breakers struct {
		Breakers []failover.BreakerState `json:"breakers"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&breakers); err != nil {
		t.Fatal(err)
	}
	_ = bresp.Body.Close()
	if len(breakers.Breakers) != 1 || breakers.Breakers[0].Service != "flaky" || breakers.Breakers[0].State != "open" {
		t.Errorf("/v1/breakers = %+v, want flaky open", breakers.Breakers)
	}

	// Recovery: after the cooldown the half-open probe closes the breaker.
	flaky.SetDown(false)
	time.Sleep(60 * time.Millisecond)
	if got := invoke("flaky", "probe"); got != http.StatusOK {
		t.Fatalf("probe -> HTTP %d, want 200", got)
	}

	// Train the moody service fast, then hang it: the predicted-latency
	// deadline converts the hang into a 504 instead of a stuck request.
	for i := 0; i < 8; i++ { // the predictor's default MinObservations
		if got := invoke("moody", fmt.Sprintf("warm %d", i)); got != http.StatusOK {
			t.Fatalf("warmup %d -> HTTP %d, want 200", i, got)
		}
	}
	hang.Store(true)
	start := time.Now()
	if got := invoke("moody", "now hang"); got != http.StatusGatewayTimeout {
		t.Fatalf("hung invoke -> HTTP %d, want 504", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hung request took %v; deadline should have bounded it", elapsed)
	}
}
