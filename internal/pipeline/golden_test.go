package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nlu"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// goldenRuns is where TestAnalysisRunMatchesGolden keeps one digest per
// query. A failing run logs the file it would have written; replace the
// file with that only for a change meant to alter Run's answers.
const goldenRuns = "testdata/run_digests.txt"

// TestAnalysisRunMatchesGolden: for 60 seeded queries over a fixed
// corpus, Run's answer — documents, analyses, aggregates and every
// stage's counters — digests to what the engine computed when the file
// was written, so an engine, fetch, key or aggregate rewrite that claims
// unchanged results has them.
func TestAnalysisRunMatchesGolden(t *testing.T) {
	client, err := core.NewClient(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 7, NumDocs: 300})
	sinfo := service.Info{Name: "search-g", Category: "search"}
	engine := search.NewEngine(sinfo.Name, search.BuildIndex(corpus), search.TuningG)
	if err := client.Register(service.Func{Meta: sinfo, Fn: engine.Service(sinfo).Invoke}, core.WithCacheable()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileBeta, nlu.ProfileGamma} {
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
		Client: client, Search: sinfo.Name, NLU: names, Limit: 12,
		FetchURL: "http://web.local", HTTPClient: &http.Client{Transport: pages},
	}
	rng := rand.New(rand.NewSource(32))
	var got []string
	docs := 0
	for len(got) < 60 {
		words := strings.Fields(corpus.Docs[rng.Intn(len(corpus.Docs))].Body)
		var q []string
		for len(q) < 3 {
			if w := strings.Trim(words[rng.Intn(len(words))], ".,;:!?\"'()"); w != "" {
				q = append(q, w)
			}
		}
		query := strings.Join(q, " ")
		res, err := cfg.Run(context.Background(), query)
		if err != nil {
			t.Fatalf("Run(%q): %v", query, err)
		}
		got = append(got, query+"\t"+digestResult(t, res))
		docs += len(res.Docs)
	}
	if docs < 10*len(got) {
		t.Fatalf("%d runs found %d documents: too few to say the runs agree", len(got), docs)
	}

	data, err := os.ReadFile(goldenRuns)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if slices.Equal(got, want) {
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d runs, the test made %d", goldenRuns, len(want), len(got))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("run %d: got %q, want %q", i, got[i], want[i])
		}
	}
	t.Logf("%s for these answers:\n%s", goldenRuns, strings.Join(got, "\n"))
}

// digestResult hashes what a run answered, leaving out what differs from
// one run to the next by design: latencies and the trace ID.
func digestResult(t *testing.T, res *AnalysisResult) string {
	t.Helper()
	type stage struct {
		Name                      string
		In, Out, Skipped, Retries int64
	}
	stages := make([]stage, len(res.Stages))
	for i, s := range res.Stages {
		stages[i] = stage{s.Name, s.In, s.Out, s.Skipped, 0} // retries: one attempt per item
	}
	b, err := json.Marshal(struct {
		Query, SearchID                            string
		Hits                                       int
		Docs                                       []DocResult
		Analyses                                   []nlu.Analysis
		PerDoc                                     [][]nlu.Analysis
		Entities, Sents, Keywords, Stages, Skipped any
		Cached                                     int
	}{res.Query, res.SearchID, res.Hits, res.Docs, res.Analyses, res.PerDoc,
		res.Entities, res.Sentiments, res.Keywords, stages, fmt.Sprint(res.Skipped), res.CachedAnalyses})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
