package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/trace"
)

func sampleDocs() []docstore.SavedDoc {
	return []docstore.SavedDoc{
		{URL: "u1", Title: "t1", Text: "Acme Corporation reported excellent growth in Germany."},
		{URL: "u2", Title: "t2", Text: "Globex suffered a terrible decline in France."},
	}
}

// TestAnalysisRunTraceTree verifies the acceptance criterion that one
// pipeline run produces a single trace tree spanning search → fetch → NLU →
// aggregate, with the SDK invocations nested inside the stage spans.
func TestAnalysisRunTraceTree(t *testing.T) {
	tr := trace.New(trace.WithMaxSpans(4096))
	t.Cleanup(tr.Close)
	client, web := newAnalysisEnvCfg(t, core.Config{CacheTTL: time.Minute, Tracer: tr})
	cfg := AnalysisConfig{
		Client:   client,
		Search:   "search-g",
		NLU:      []string{"nlu-alpha", "nlu-beta"},
		FetchURL: web.URL,
		Limit:    5,
		Workers:  3,
	}
	res, err := cfg.Run(context.Background(), "market technology growth")
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("run reported no trace ID")
	}
	// One root trace covers the whole run — the SDK invocations made inside
	// it must not have opened their own traces.
	if got := tr.Traces(); len(got) != 1 {
		t.Fatalf("stored %d traces, want 1 tree for the whole run", len(got))
	}
	full, ok := tr.Trace(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retrievable", res.TraceID)
	}
	if full.Name != "analysis" {
		t.Errorf("root span = %q, want analysis", full.Name)
	}
	if full.DroppedSpans != 0 {
		t.Errorf("trace dropped %d spans; raise WithMaxSpans in the test", full.DroppedSpans)
	}

	byID := map[int]trace.SpanData{}
	for _, s := range full.Spans {
		byID[s.ID] = s
	}
	parentName := func(s trace.SpanData) string {
		if p, ok := byID[s.ParentID]; ok {
			return p.Name
		}
		return ""
	}
	count := map[string]int{}
	for _, s := range full.Spans {
		count[s.Name]++
		switch s.Name {
		case "search", "fetch", "analyze", "aggregate":
			if got := parentName(s); got != "analysis" {
				t.Errorf("stage span %q parent = %q, want analysis", s.Name, got)
			}
		case "invoke search-g":
			if got := parentName(s); got != "search" {
				t.Errorf("search invocation parent = %q, want search stage", got)
			}
		case "invoke nlu-alpha", "invoke nlu-beta":
			if got := parentName(s); got != "analyze" {
				t.Errorf("%s parent = %q, want analyze stage", s.Name, got)
			}
		}
	}
	// Stage spans: one search source span, one fetch/analyze/aggregate span
	// per document.
	if count["search"] != 1 {
		t.Errorf("search spans = %d, want 1", count["search"])
	}
	for _, stage := range []string{"fetch", "analyze", "aggregate"} {
		if count[stage] != res.Hits {
			t.Errorf("%s spans = %d, want one per doc (%d)", stage, count[stage], res.Hits)
		}
	}
	if count["invoke search-g"] != 1 {
		t.Errorf("search invocations = %d, want 1", count["invoke search-g"])
	}
	for _, n := range []string{"invoke nlu-alpha", "invoke nlu-beta"} {
		if count[n] != res.Hits {
			t.Errorf("%s spans = %d, want %d", n, count[n], res.Hits)
		}
	}
}

// TestRunDocsTraceAndFallbackTracer: RunDocs is traced by its Client's
// tracer, with the SDK invocations nested in the stage spans.
func TestRunDocsTraceAndFallbackTracer(t *testing.T) {
	tr := trace.New()
	t.Cleanup(tr.Close)
	client, _ := newAnalysisEnvCfg(t, core.Config{CacheTTL: time.Minute, Tracer: tr})
	cfg := AnalysisConfig{Client: client, NLU: []string{"nlu-alpha"}}
	docs := sampleDocs()
	res, err := cfg.RunDocs(context.Background(), "relabel", docs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("RunDocs reported no trace ID")
	}
	full, ok := tr.Trace(res.TraceID)
	if !ok {
		t.Fatal("trace not stored")
	}
	names := map[string]int{}
	for _, s := range full.Spans {
		names[s.Name]++
	}
	if names["docs"] != 1 || names["analyze"] != len(docs) || names["aggregate"] != len(docs) {
		t.Errorf("span counts = %v, want docs×1, analyze×%d, aggregate×%d", names, len(docs), len(docs))
	}
	if names["invoke nlu-alpha"] != len(docs) {
		t.Errorf("span counts = %v, want invoke nlu-alpha×%d", names, len(docs))
	}
}

func TestUntracedRunHasNoTraceID(t *testing.T) {
	client, _ := newAnalysisEnv(t)
	cfg := AnalysisConfig{Client: client, NLU: []string{"nlu-alpha"}}
	res, err := cfg.RunDocs(context.Background(), "plain", sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Errorf("untraced run has TraceID %q", res.TraceID)
	}
}
