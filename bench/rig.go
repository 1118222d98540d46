package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/aggregate"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/rank"
	"repro/internal/rdf"
	"repro/internal/remotestore"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/webcorpus"
)

const storeNodes = 4

// Predicates of the per-run facts analyze-loop enters and derives.
const (
	pMentions = "kb:mentions"
	pPromotes = "kb:promotes"
)

var (
	nluNames    = []string{"nlu-alpha", "nlu-beta", "nlu-gamma"}
	nluProfiles = []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileBeta, nlu.ProfileGamma}
	nluCosts    = []float64{0.003, 0.002, 0.0005}
	searchNames = []string{"search-g", "search-b"}
	searchTunes = []search.Params{search.TuningG, search.TuningB}
)

// rig is the one in-process system every workload runs against: corpus,
// index, SDK client with its five simulated services, the HTTP facade and
// the corpus web server on loopback, four store nodes behind a replicated
// cluster client and a knowledge base. Everything in it is a
// function of the seed except the loopback ports.
type rig struct {
	corpus  *webcorpus.Corpus
	client  *core.Client
	nlu     map[string]*nlu.Engine
	search  map[string]*search.Engine
	facade  *httptest.Server
	web     *httptest.Server
	nodes   []*remotestore.Server
	nodeSrv []*httptest.Server
	cluster *remotestore.Cluster
	store   remotestore.Store // the cluster, or its traced wrapper
	kb      *kb.KB
	sink    func(context.Context, []aggregate.EntitySentiment) error
	fetch   *http.Client // the pipeline's document fetcher

	// traced-rig extras (nil on an untraced rig)
	backends []*tracedService
	codec    *tracedCodec
	restore  func() // puts http.DefaultTransport back
}

// buildRig builds the rig for seed. With rec nil no wrapper is installed
// anywhere; with a recorder every boundary listed in trace.go is wrapped.
func buildRig(seed int64, sc scale, rec *recorder) (*rig, error) {
	r := &rig{nlu: map[string]*nlu.Engine{}, search: map[string]*search.Engine{}}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	r.corpus = webcorpus.Generate(webcorpus.Config{Seed: seed, NumDocs: sc.Docs})
	index := search.BuildIndex(r.corpus, search.WithExpansion(lexicon.PMIConfig{}))

	// The cost-weighted scorer makes the category ranking a function of
	// the configuration; with default weights it follows microsecond
	// latency noise and invoke-ranked varies ±20% run to run.
	cfg := core.Config{
		CacheTTL: time.Hour,
		Breaker:  core.BreakerConfig{Threshold: 5},
		Scorer:   rank.Weighted{W: rank.Weights{Alpha: 1, Beta: 1000, Gamma: 1}},
	}
	if rec != nil {
		cfg.Middleware = []core.Middleware{chainMiddleware()}
	}
	client, err := core.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	r.client = client

	// Nil latency and zero fail rate: the numbers measure this program,
	// not time.Sleep.
	register := func(info service.Info, handler func(context.Context, service.Request) (service.Response, error), l layer, svcSeed int64) error {
		var svc service.Service = simsvc.New(simsvc.Config{Info: info, Handler: handler, Seed: svcSeed})
		if rec != nil {
			ts := &tracedService{inner: svc, layer: l}
			r.backends = append(r.backends, ts)
			svc = ts
		}
		return client.Register(svc, core.WithCacheable())
	}
	for i, name := range nluNames {
		eng := nlu.NewEngine(nluProfiles[i])
		r.nlu[name] = eng
		info := service.Info{Name: name, Category: "nlu", CostPerCall: nluCosts[i]}
		if err := register(info, eng.Service(info).Invoke, lBackendNLU, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	for i, name := range searchNames {
		eng := search.NewEngine(name, index, searchTunes[i])
		r.search[name] = eng
		info := service.Info{Name: name, Category: "search", CostPerCall: 0.001}
		if err := register(info, eng.Service(info).Invoke, lBackendSearch, seed+100+int64(i)); err != nil {
			return nil, err
		}
	}

	wrap := func(h http.Handler, l layer) http.Handler {
		if rec == nil {
			return h
		}
		return &tracedHandler{inner: h, rec: rec, layer: l}
	}
	r.facade = httptest.NewServer(wrap(core.NewAPI(client), lFacade))
	r.web = httptest.NewServer(wrap(r.corpus.Handler(), lWebHandler))

	urls := make([]string, storeNodes)
	for i := range urls {
		node := remotestore.NewServer(nil)
		srv := httptest.NewServer(wrap(node.Handler(), lNode))
		r.nodes = append(r.nodes, node)
		r.nodeSrv = append(r.nodeSrv, srv)
		urls[i] = srv.URL
	}
	aes, err := codec.NewAESGCM("bench")
	if err != nil {
		return nil, err
	}
	var cdc codec.Codec = codec.Chain{codec.Gzip{}, aes}
	if rec != nil {
		r.codec = &tracedCodec{inner: cdc, rec: rec}
		cdc = r.codec
		// The cluster builds its own http.Client over the default
		// transport; that is the only seam to its node calls.
		prev := http.DefaultTransport
		http.DefaultTransport = &spanTransport{base: prev}
		r.restore = func() { http.DefaultTransport = prev }
	}
	r.cluster, err = remotestore.NewCluster(remotestore.ClusterConfig{
		Nodes: urls, Replicas: 2, WriteQuorum: 2, Seed: 1, Codec: cdc, CacheSize: 256,
	})
	if err != nil {
		return nil, err
	}
	r.store = r.cluster
	if rec != nil {
		r.store = &tracedStore{Cluster: r.cluster, rec: rec}
	}

	if r.kb, err = kb.New(kb.Config{Remote: r.store}); err != nil {
		return nil, err
	}
	// User rules and schema over the facts the loop stores. The sink's
	// per-entity sentiments saturate (the lexicon has 62 entities), so each
	// run also enters which entities it mentioned under a subject of its
	// own (see analyzeLoopCaller.issue): the join rule and the RDFS domain
	// and subclass reasoners then derive new triples on every op.
	v, iri, lit := rdf.NewVar, rdf.NewIRI, rdf.NewLiteral
	rules := []rdf.Rule{{
		Name:        "run-promotes",
		Premises:    []rdf.Statement{{S: v("r"), P: iri(pMentions), O: v("e")}, {S: v("e"), P: iri("kb:outlook"), O: lit("promote")}},
		Conclusions: []rdf.Statement{{S: v("r"), P: iri(pPromotes), O: v("e")}},
	}}
	for mood, outlook := range map[string]string{"favorable": "promote", "unfavorable": "watch"} {
		rules = append(rules, rdf.Rule{
			Name:        "outlook-" + outlook,
			Premises:    []rdf.Statement{{S: v("e"), P: iri("kb:webSentiment"), O: lit(mood)}},
			Conclusions: []rdf.Statement{{S: v("e"), P: iri("kb:outlook"), O: lit(outlook)}},
		})
	}
	for _, rule := range rules {
		if err := r.kb.AddRule(rule); err != nil {
			return nil, err
		}
	}
	for _, f := range [][3]string{{pMentions, rdf.RDFSDomain, "kb:Run"}, {"kb:Run", rdf.RDFSSubClassOf, "kb:Activity"}} {
		if err := r.kb.AddFact(f[0], f[1], f[2]); err != nil {
			return nil, err
		}
	}
	r.sink = r.kb.StoreWebSentiments
	var fetchTransport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16}
	if rec != nil {
		r.sink = tracedSink(r.sink)
		fetchTransport = &spanTransport{base: fetchTransport, open: true, layer: lFetch}
	}
	r.fetch = &http.Client{Transport: fetchTransport}
	ok = true
	return r, nil
}

// close stops every server and goroutine the rig started, so a later rig
// in the same process starts from the same heap.
func (r *rig) close() {
	if r.fetch != nil {
		r.fetch.CloseIdleConnections()
	}
	if r.facade != nil {
		r.facade.Close()
	}
	if r.web != nil {
		r.web.Close()
	}
	if r.cluster != nil {
		r.cluster.Close()
	}
	for _, s := range r.nodeSrv {
		s.Close()
	}
	if r.restore != nil {
		r.restore()
	}
	// The cluster's client keeps idle connections to the closed nodes in
	// the default transport.
	if t, isT := http.DefaultTransport.(*http.Transport); isT {
		t.CloseIdleConnections()
	}
	if r.client != nil {
		r.client.Close()
	}
}

// newLoadClient returns a keep-alive HTTP client holding one connection,
// one per caller: the facade's users are other-language applications, each
// on its own connection.
func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}
