package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/failover"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/spell"
	"repro/internal/vision"
	"repro/internal/webcorpus"
)

// E6: entities found by more services deserve more confidence (Fig. 3,
// §2.1). The three NLU engine profiles over 150 generated documents,
// scored micro-averaged (every document's IDs pooled under a per-document
// prefix): the precise engine beats the noisy one, and ≥2-of-3 consensus
// is no worse than the noisiest engine in precision or F1.
func TestE6ConsensusShape(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 99, NumDocs: 150})
	engines := []*nlu.Engine{nlu.NewEngine(nlu.ProfileAlpha), nlu.NewEngine(nlu.ProfileBeta), nlu.NewEngine(nlu.ProfileGamma)}
	found := make([][]string, len(engines)+1) // per engine, then consensus
	var wanted []string
	for i, d := range corpus.Docs {
		prefix := func(ids []string) []string {
			out := make([]string, len(ids))
			for j, id := range ids {
				out[j] = fmt.Sprintf("doc%d/%s", i, id)
			}
			return out
		}
		analyses := make([]nlu.Analysis, len(engines))
		for j, e := range engines {
			analyses[j] = e.Analyze(d.Body)
			found[j] = append(found[j], prefix(aggregate.KnownOnly(analyses[j].EntityIDs()))...)
		}
		consensus := aggregate.FilterConfident(aggregate.Consensus(analyses), 0.5)
		found[len(engines)] = append(found[len(engines)], prefix(aggregate.KnownOnly(consensus))...)
		wanted = append(wanted, prefix(d.TrueEntities)...)
	}
	alpha, gamma, cons := aggregate.Score(found[0], wanted), aggregate.Score(found[2], wanted), aggregate.Score(found[3], wanted)
	if alpha.F1 <= gamma.F1 {
		t.Errorf("alpha F1 %.3f should beat gamma %.3f", alpha.F1, gamma.F1)
	}
	if cons.Precision+0.02 < gamma.Precision {
		t.Errorf("consensus precision %.3f below the noisiest engine's %.3f", cons.Precision, gamma.Precision)
	}
	if cons.F1+0.02 < gamma.F1 {
		t.Errorf("consensus F1 %.3f below the noisiest engine's %.3f", cons.F1, gamma.F1)
	}
}

// E7: persisted analyses mean each document is analysed once, inside its
// quota (§2.2). With a quota of one and a half passes, three passes over
// the same documents through a document store call the service once per
// document and are never denied.
func TestE7PersistShape(t *testing.T) {
	client := newClient(t, core.Config{})
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 5, NumDocs: 24})
	docs := make([]docstore.SavedDoc, len(corpus.Docs))
	for i, d := range corpus.Docs {
		docs[i] = docstore.SavedDoc{URL: d.URL, Title: d.Title, Text: d.Body}
	}
	metered := simsvc.New(simsvc.Config{
		Info:  service.Info{Name: "nlu-metered", Category: "nlu"},
		Quota: service.NewQuota(len(docs)+len(docs)/2, time.Hour, nil),
		Handler: func(_ context.Context, req service.Request) (service.Response, error) {
			return nlu.NewEngine(nlu.ProfileAlpha).Analyze(req.Text).Encode()
		},
	})
	// One attempt per call: retrying a quota denial would count it twice.
	if err := client.Register(metered, core.WithRetry(failover.RetryPolicy{MaxAttempts: 1})); err != nil {
		t.Fatal(err)
	}
	store, err := docstore.New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 3; pass++ {
		calls := metered.Invocations()
		res, err := pipeline.AnalysisConfig{
			Client:         client,
			NLU:            []string{"nlu-metered"},
			Store:          store,
			SkipFailedDocs: true,
		}.RunDocs(context.Background(), "re-analysis", docs)
		if err != nil {
			t.Fatal(err)
		}
		wantCalls, wantCached := int64(len(docs)), 0
		if pass > 1 {
			wantCalls, wantCached = 0, len(docs)
		}
		if got := metered.Invocations() - calls; got != wantCalls || res.CachedAnalyses != wantCached || len(res.Skipped) != 0 {
			t.Errorf("pass %d: %d service calls, %d analyses from the store, skipped %v; want %d, %d, none",
				pass, got, res.CachedAnalyses, res.Skipped, wantCalls, wantCached)
		}
	}
}

// E10: the local spell checker avoids the remote service's cost (§3).
// Behind a metered remote service every check is one service call at a
// positive cost; the in-process checker gives the same corrections with
// no service call at all. The "local is 40× faster" half of the claim
// restated the remote simulator's 2 ms setting and is not asserted.
func TestE10LocalRemoteShape(t *testing.T) {
	checker := spell.NewChecker(lexicon.Dictionary(), map[string]int{"market": 100, "made": 50})
	info := service.Info{Name: "spell-remote", Category: "spell", CostPerCall: 0.0005}
	remote := simsvc.New(simsvc.Config{Info: info, Handler: checker.Service(info).Invoke})
	req := service.Request{Op: "spellcheck", Text: "The markte in Germny grew while the economi improved."}
	var remoteCorrs []spell.Correction
	for i := 0; i < 10; i++ {
		resp, err := remote.Invoke(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if remoteCorrs, err = spell.DecodeCorrections(resp); err != nil {
			t.Fatal(err)
		}
	}
	if n, cost := remote.Invocations(), remote.Info().Cost(req); n != 10 || cost <= 0 {
		t.Errorf("remote: %d service calls at %v each, want 10 at a positive cost", n, cost)
	}
	if local := checker.Check(req.Text); !reflect.DeepEqual(local, remoteCorrs) || len(local) != 3 {
		t.Errorf("local corrections %+v, remote %+v; want the same three", local, remoteCorrs)
	}
	if n := remote.Invocations(); n != 10 {
		t.Errorf("the local check reached the remote service: %d calls", n)
	}
}

// E15: images flow through the same multi-service analysis (Fig. 1,
// §2.2). Combining two vision engines trades precision for recall over
// 200 images, scored micro-averaged (IDs pooled per image): the sharp
// engine beats the fast one, labels both report are at least as precise
// as the fast engine's, and labels either reports recall at least what
// the sharp engine does.
func TestE15VisionShape(t *testing.T) {
	sharp, fast := vision.NewEngine(vision.ProfileSharp), vision.NewEngine(vision.ProfileFast)
	var truth, sharpL, fastL, inter, union []string
	for i := 0; i < 200; i++ {
		img := vision.Generate(fmt.Sprintf("img-%04d", i), int64(9000+i))
		rs, err := sharp.Recognize(img.ID, img.Encode())
		if err != nil {
			t.Fatal(err)
		}
		rf, err := fast.Recognize(img.ID, img.Encode())
		if err != nil {
			t.Fatal(err)
		}
		inSharp := map[string]bool{}
		for _, l := range rs.LabelSet() {
			inSharp[l] = true
			sharpL = append(sharpL, img.ID+"/"+l)
			union = append(union, img.ID+"/"+l)
		}
		for _, l := range rf.LabelSet() {
			fastL = append(fastL, img.ID+"/"+l)
			if inSharp[l] {
				inter = append(inter, img.ID+"/"+l)
			} else {
				union = append(union, img.ID+"/"+l)
			}
		}
		for _, l := range img.TrueLabels {
			truth = append(truth, img.ID+"/"+l)
		}
	}
	sharpS, fastS := aggregate.Score(sharpL, truth), aggregate.Score(fastL, truth)
	interS, unionS := aggregate.Score(inter, truth), aggregate.Score(union, truth)
	if sharpS.F1 <= fastS.F1 {
		t.Errorf("sharp F1 %.3f should beat fast %.3f", sharpS.F1, fastS.F1)
	}
	if interS.Precision+1e-9 < fastS.Precision {
		t.Errorf("intersection precision %.3f below the fast engine's %.3f", interS.Precision, fastS.Precision)
	}
	if unionS.Recall+1e-9 < sharpS.Recall {
		t.Errorf("union recall %.3f below the sharp engine's %.3f", unionS.Recall, sharpS.Recall)
	}
}

// E16: bounded fetch/analyze workers process the same documents at any
// width, and a warm repeat is served by the SDK cache (Fig. 3/5). At 1,
// 2, 4 and 8 workers a cold run analyses every hit once; repeating the
// widest run's query on its client makes no service call and answers the
// search and every analysis from the cache. That the workers overlap is
// proved by gates in pipeline's TestWorkersOverlapFetchAndAnalyze.
func TestE16PipelineShape(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 7, NumDocs: 120})
	web := httptest.NewServer(corpus.Handler())
	t.Cleanup(web.Close)
	index := search.BuildIndex(corpus)
	const query = "market technology growth company"

	docs := -1
	for _, workers := range []int{1, 2, 4, 8} {
		client := newClient(t, core.Config{CacheTTL: time.Minute})
		sinfo := service.Info{Name: "search-g", Category: "search"}
		sengine := search.NewEngine(sinfo.Name, index, search.TuningG)
		if err := client.Register(simsvc.New(simsvc.Config{Info: sinfo, Handler: sengine.Service(sinfo).Invoke}), core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
		ninfo := service.Info{Name: "nlu-alpha", Category: "nlu"}
		nsim := simsvc.New(simsvc.Config{Info: ninfo, Handler: nlu.NewEngine(nlu.ProfileAlpha).Service(ninfo).Invoke})
		if err := client.Register(nsim, core.WithCacheable()); err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.AnalysisConfig{
			Client:   client,
			Search:   "search-g",
			NLU:      []string{"nlu-alpha"},
			FetchURL: web.URL,
			Limit:    8,
			Workers:  workers,
		}
		res, err := cfg.Run(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if docs == -1 {
			docs = len(res.Docs)
			if docs == 0 {
				t.Fatal("the query matched no documents")
			}
		}
		if len(res.Docs) != docs {
			t.Errorf("%d workers processed %d documents, 1 worker %d", workers, len(res.Docs), docs)
		}
		if calls := nsim.Invocations(); calls != int64(len(res.Docs)) {
			t.Errorf("%d workers, cold: %d service calls for %d documents", workers, calls, len(res.Docs))
		}
		if workers < 8 {
			continue
		}
		calls, hits := nsim.Invocations(), client.CacheStats().Hits
		again, err := cfg.Run(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if got := nsim.Invocations() - calls; got != 0 {
			t.Errorf("warm repeat made %d service calls, want 0", got)
		}
		if got, want := client.CacheStats().Hits-hits, uint64(1+len(again.Docs)); got != want {
			t.Errorf("warm repeat: %d cache hits, want %d (the search and every analysis)", got, want)
		}
	}
}
