package integration

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/remotestore"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/webcorpus"
)

// BenchmarkFig5Cycle is the repository benchmark's analyze-loop op on a
// rig built from product packages only, so the loop can be profiled
// (-cpuprofile, -memprofile) without editing bench/: one caller runs the
// Fig. 3 pipeline for a three-word query — search through the SDK, ten
// pages fetched over loopback HTTP, each analysed by two NLU services
// through the SDK cache, aggregated into the knowledge base's sentiment
// sink — enters what the run mentioned, infers, queries what it promoted,
// retires the run that left the 64-run window, saves the result to a
// four-node replicated store through gzip and AES-GCM, and loads the
// previous one back. Services have no simulated latency: the time is this
// program's. `make bench-loop`.
func BenchmarkFig5Cycle(b *testing.B) {
	const (
		docs     = 2000
		nodes    = 4
		kbWindow = 64
		warmUp   = 2 * kbWindow // fills the window and the SDK's caches
	)
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 1, NumDocs: docs})
	index := search.BuildIndex(corpus, search.WithExpansion(lexicon.PMIConfig{}))
	client, err := core.NewClient(core.Config{CacheTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	register := func(info service.Info, handler func(context.Context, service.Request) (service.Response, error), seed int64) {
		if err := client.Register(simsvc.New(simsvc.Config{Info: info, Handler: handler, Seed: seed}), core.WithCacheable()); err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileGamma} {
		info := service.Info{Name: p.Name, Category: "nlu"}
		register(info, nlu.NewEngine(p).Service(info).Invoke, int64(i))
	}
	sinfo := service.Info{Name: "search-g", Category: "search"}
	register(sinfo, search.NewEngine(sinfo.Name, index, search.TuningG).Service(sinfo).Invoke, 100)

	web := httptest.NewServer(corpus.Handler())
	defer web.Close()
	urls := make([]string, nodes)
	for i := range urls {
		srv := httptest.NewServer(remotestore.NewServer(nil).Handler())
		defer srv.Close()
		urls[i] = srv.URL
	}
	aes, err := codec.NewAESGCM("bench")
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := remotestore.NewCluster(remotestore.ClusterConfig{
		Nodes: urls, Replicas: 2, WriteQuorum: 2, Seed: 1,
		Codec: codec.Chain{codec.Gzip{}, aes}, CacheSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()

	base, err := kb.New(kb.Config{Remote: cluster})
	if err != nil {
		b.Fatal(err)
	}
	v, iri, lit := rdf.NewVar, rdf.NewIRI, rdf.NewLiteral
	rules := []rdf.Rule{
		{
			Name:        "run-promotes",
			Premises:    []rdf.Statement{{S: v("r"), P: iri("kb:mentions"), O: v("e")}, {S: v("e"), P: iri("kb:outlook"), O: lit("promote")}},
			Conclusions: []rdf.Statement{{S: v("r"), P: iri("kb:promotes"), O: v("e")}},
		},
		{
			Name:        "outlook-promote",
			Premises:    []rdf.Statement{{S: v("e"), P: iri("kb:webSentiment"), O: lit("favorable")}},
			Conclusions: []rdf.Statement{{S: v("e"), P: iri("kb:outlook"), O: lit("promote")}},
		},
		{
			Name:        "outlook-watch",
			Premises:    []rdf.Statement{{S: v("e"), P: iri("kb:webSentiment"), O: lit("unfavorable")}},
			Conclusions: []rdf.Statement{{S: v("e"), P: iri("kb:outlook"), O: lit("watch")}},
		},
	}
	for _, r := range rules {
		if err := base.AddRule(r); err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range [][3]string{{"kb:mentions", rdf.RDFSDomain, "kb:Run"}, {"kb:Run", rdf.RDFSSubClassOf, "kb:Activity"}} {
		if err := base.AddFact(f[0], f[1], f[2]); err != nil {
			b.Fatal(err)
		}
	}

	fetch := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer fetch.CloseIdleConnections()
	cfg := pipeline.AnalysisConfig{
		Client: client, Search: sinfo.Name, NLU: []string{nlu.ProfileAlpha.Name, nlu.ProfileGamma.Name},
		FetchURL: web.URL, HTTPClient: fetch, Limit: 10, Workers: 4,
		Sentiments: base.StoreWebSentiments,
	}
	rng := rand.New(rand.NewSource(1))
	runSubject := func(n int) string { return "run:" + strconv.Itoa(n) }
	prevKey := "run-boot"
	if err := base.SaveRemote(prevKey, []byte(`{"boot":true}`)); err != nil {
		b.Fatal(err)
	}
	derived := 0
	cycle := func(n int) {
		words := strings.Fields(corpus.Docs[rng.Intn(len(corpus.Docs))].Body)
		var q []string
		for len(q) < 3 {
			if w := strings.Trim(words[rng.Intn(len(words))], ".,;:!?\"'()"); w != "" {
				q = append(q, w)
			}
		}
		run := cfg
		run.Expand = n%2 == 1
		res, err := run.Run(context.Background(), strings.Join(q, " "))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Sentiments {
			if err := base.AddFact(runSubject(n), "kb:mentions", s.EntityID); err != nil {
				b.Fatal(err)
			}
		}
		d, err := base.Infer()
		if err != nil {
			b.Fatal(err)
		}
		derived += d
		if _, err := base.Query("SELECT ?e WHERE { <" + runSubject(n) + "> <kb:promotes> ?e }"); err != nil {
			b.Fatal(err)
		}
		g := base.Graph()
		for _, st := range g.Match(rdf.Statement{S: iri(runSubject(n - kbWindow))}) {
			g.Remove(st)
		}
		saved, err := json.Marshal(struct {
			Query      string                      `json:"query"`
			Entities   []aggregate.EntityCount     `json:"entities"`
			Sentiments []aggregate.EntitySentiment `json:"sentiments"`
			Keywords   []nlu.Keyword               `json:"keywords"`
			Analyses   []nlu.Analysis              `json:"analyses"`
		}{res.Query, res.Entities, res.Sentiments, res.Keywords, res.Analyses})
		if err != nil {
			b.Fatal(err)
		}
		key := "run-" + strconv.Itoa(n)
		if err := base.SaveRemote(key, saved); err != nil {
			b.Fatal(err)
		}
		if _, err := base.LoadRemote(prevKey); err != nil {
			b.Fatal(err)
		}
		prevKey = key
	}
	for n := 0; n < warmUp; n++ {
		cycle(n)
	}
	derived = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(warmUp + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(derived)/float64(b.N), "derived/op")
	b.ReportMetric(float64(base.Graph().Len()), "triples")
}
