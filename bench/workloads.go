package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/aggregate"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/webcorpus"
	"repro/internal/xrand"
)

// workload is one closed-loop traffic mix. OpsPerSecond fixes the op count
// of the timed phase as OpsPerSecond × -seconds: a run always does the same
// work on every commit, so counts and allocations compare across commits
// and a faster program simply finishes sooner. The rates are what the seed
// commit sustained on 2 cores with 4 callers, rounded down so that a timed
// phase of -seconds 10 takes 8 to 10 s there; they change only in a later
// benchmark issue.
type workload struct {
	Name         string
	Why          string
	OpsPerSecond int
	SingleCaller bool
	// SpansPerOp sizes the traced pass's preallocated span slices.
	SpansPerOp int
	start      func(r *rig, sc scale, seed int64, callers int) (instance, error)
}

// instance is a workload bound to one rig.
type instance interface {
	// prepare does the workload's untimed preload; it is part of set-up.
	prepare() error
	// caller returns closed-loop caller c. Its op stream is a function of
	// the seed and c alone.
	caller(c int) caller
}

// caller is one application thread: it issues an op, waits for the reply,
// checks it, and only then issues the next.
type caller interface {
	// issue runs one op to its complete reply. This is what is timed.
	issue(ctx context.Context) error
	// check is the correctness oracle for the reply issue just got. It
	// runs between ops, untimed, but on the same cores.
	check() error
	// hash identifies the op stream drawn so far.
	hash() uint64
	// captured hands the layer probes a sample of this caller's inputs.
	captured() probeInputs
	close()
}

// probeInputs are workload inputs kept for the direct layer probes, which
// call the substrates on the same inputs the timed phase sent them.
type probeInputs struct {
	texts   map[string][]string // NLU engine -> texts analysed on it
	queries []probeQuery
	results []*pipeline.AnalysisResult

	// Quantities a caller reads off its own replies, summed over its ops.
	attempts       int64 // invoke-category: services tried
	derived        int64 // analyze-loop: triples kb.Infer derived
	promoted       int64 // analyze-loop: rows the loop's query read back
	fetchStageNS   int64 // analyze-loop: the pipeline's own mean fetch-stage latency, summed over runs
	analyzeStageNS int64
}

// add merges one caller's observations into p.
func (p *probeInputs) add(o probeInputs) {
	for engine, texts := range o.texts {
		if p.texts == nil {
			p.texts = map[string][]string{}
		}
		p.texts[engine] = append(p.texts[engine], texts...)
	}
	p.queries = append(p.queries, o.queries...)
	p.results = append(p.results, o.results...)
	p.attempts += o.attempts
	p.derived += o.derived
	p.promoted += o.promoted
	p.fetchStageNS += o.fetchStageNS
	p.analyzeStageNS += o.analyzeStageNS
}

type probeQuery struct {
	engine string
	query  string
	opts   search.Options
}

const probeSample = 64 // inputs kept per caller and kind

var workloads = []workload{
	{
		Name:         "invoke-hot",
		Why:          "Zipf over 256 hot items that fit the response cache: facade JSON, mux, middleware chain and the cache hit path do all the work, substrates none",
		OpsPerSecond: 20000, SpansPerOp: 4, start: startInvokeHot,
	},
	{
		Name:         "invoke-cold",
		Why:          "unique analyze texts and random searches exceed the 4096-entry cache: NLU and search substrates, single-flight fill and monitor/predict recording carry the time",
		OpsPerSecond: 9000, SpansPerOp: 5, start: startInvokeCold,
	},
	{
		Name:         "invoke-ranked",
		Why:          "invoke-category on unique texts: Equation 1 ranking, predict, rank and ranked failover on every op; cost grows with predictor history at the seed commit",
		OpsPerSecond: 1400, SpansPerOp: 5, start: startInvokeRanked,
	},
	{
		Name:         "analyze-loop",
		Why:          "the Fig. 5 loop end to end on one caller: pipeline engine, HTTP fetch, NLU through the SDK cache, aggregate, per-run facts and RDF inference, codec, replicated store; the facade does nothing",
		OpsPerSecond: 260, SingleCaller: true, SpansPerOp: 72, start: startAnalyzeLoop,
	},
	{
		Name:         "store-mixed",
		Why:          "69/30/1 Get/Put/Keys, Zipf over 4096 keys that exceed the 256-entry client cache: codec, ring, R=2 fan-out, wire and node with reads beside writes; the SDK chain does nothing",
		OpsPerSecond: 6000, SpansPerOp: 6, start: startStoreMixed,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// FNV-1a, for the op-stream hashes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// stream is one caller's seeded op stream. Every draw is folded into h, so
// h identifies the ops generated without hashing their payloads.
type stream struct {
	src  *xrand.Source
	zipf *xrand.Zipf
	h    uint64
}

func newStream(seed int64, workloadIdx, caller int, zipfN int) *stream {
	s := &stream{src: xrand.New(seed*1_000_003 + int64(workloadIdx)*1009 + int64(caller)), h: fnvOffset}
	if zipfN > 0 {
		s.zipf = xrand.NewZipf(s.src, 1.1, uint64(zipfN))
	}
	return s
}

func (s *stream) mix(v int) int {
	s.h = (s.h ^ uint64(v)) * fnvPrime
	return v
}

func (s *stream) intn(n int) int { return s.mix(s.src.Intn(n)) }
func (s *stream) hot() int       { return s.mix(int(s.zipf.Next())) }

// threeWords draws a search query of three words from a document body.
func (s *stream) threeWords(body string) string {
	words := strings.Fields(body)
	var q []string
	for len(q) < 3 {
		w := strings.Trim(words[s.intn(len(words))], ".,;:!?\"'()")
		if w != "" {
			q = append(q, w)
		}
	}
	return strings.Join(q, " ")
}

// ---- facade callers --------------------------------------------------

// invokeBody is the facade's request envelope.
type invokeBody struct {
	Service  string          `json:"service,omitempty"`
	Category string          `json:"category,omitempty"`
	Request  service.Request `json:"request"`
}

// facadeCaller posts to one facade endpoint over its own keep-alive
// connection and keeps the reply for the oracle.
type facadeCaller struct {
	r      *rig
	http   *http.Client
	url    string
	reply  bytes.Buffer
	status int
	resp   service.Response // decoded by the oracle
}

func newFacadeCaller(r *rig, path string) facadeCaller {
	return facadeCaller{r: r, http: newLoadClient(), url: r.facade.URL + path}
}

func (f *facadeCaller) post(ctx context.Context, body []byte) error {
	sp := spanFrom(ctx).child(lHTTP)
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.rec != nil {
		req.Header.Set(spanHeader, sp.header())
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return err
	}
	f.status = resp.StatusCode
	f.reply.Reset()
	_, err = f.reply.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f *facadeCaller) close() { f.http.CloseIdleConnections() }

// invokeReq is one /v1/invoke op, kept for the oracle.
type invokeReq struct {
	service string
	req     service.Request
}

func (q invokeReq) body() []byte {
	b, err := json.Marshal(invokeBody{Service: q.service, Request: q.req})
	if err != nil {
		panic(err) // strings and a string map always marshal
	}
	return b
}

func analyzeReq(engine, text string) invokeReq {
	return invokeReq{service: engine, req: service.Request{Op: "analyze", Text: text}}
}

func searchReq(engine, query string, expand bool) invokeReq {
	params := map[string]string{"limit": "10"}
	if expand {
		params["expand"] = "true"
	}
	return invokeReq{service: engine, req: service.Request{Op: "search", Query: query, Params: params}}
}

// decodeInvoke checks that a /v1/invoke reply is a 200 whose envelope and
// typed body both decode.
func (f *facadeCaller) decodeInvoke(q invokeReq) error {
	if f.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", q.service, f.status, f.reply.Bytes())
	}
	f.resp = service.Response{}
	if err := json.Unmarshal(f.reply.Bytes(), &f.resp); err != nil {
		return fmt.Errorf("%s: envelope: %w", q.service, err)
	}
	var err error
	if q.req.Op == "search" {
		_, err = search.DecodeResults(f.resp)
	} else {
		_, err = nlu.DecodeAnalysis(f.resp)
	}
	return err
}

// direct answers q by calling the engine itself: both substrates are
// deterministic per input, so the facade's body must equal it byte for
// byte.
func (r *rig) direct(q invokeReq) ([]byte, error) {
	if q.req.Op == "search" {
		eng := r.search[q.service]
		opts := search.Options{Limit: 10, Expand: q.req.Params["expand"] == "true"}
		return json.Marshal(search.Results{Engine: q.service, Query: q.req.Query, Results: eng.Search(q.req.Query, opts)})
	}
	resp, err := r.nlu[q.service].Analyze(q.req.Text).Encode()
	return resp.Body, err
}

func (f *facadeCaller) matchesDirect(q invokeReq) error {
	want, err := f.r.direct(q)
	if err != nil {
		return err
	}
	if !bytes.Equal(f.resp.Body, want) {
		return fmt.Errorf("%s %s: facade body differs from the direct engine call", q.service, q.req.Op)
	}
	return nil
}

func (p *probeInputs) keep(q invokeReq) {
	if q.req.Op == "search" {
		if len(p.queries) < probeSample {
			p.queries = append(p.queries, probeQuery{q.service, q.req.Query, search.Options{Limit: 10, Expand: q.req.Params["expand"] == "true"}})
		}
		return
	}
	if p.texts == nil {
		p.texts = map[string][]string{}
	}
	if len(p.texts[q.service]) < probeSample {
		p.texts[q.service] = append(p.texts[q.service], q.req.Text)
	}
}

// ---- invoke-hot ------------------------------------------------------

type invokeHot struct {
	r      *rig
	seed   int64
	items  []invokeReq
	bodies [][]byte
	want   [][]byte // each item's first reply; every repeat must equal it
}

func startInvokeHot(r *rig, sc scale, seed int64, _ int) (instance, error) {
	w := &invokeHot{r: r, seed: seed}
	pick := newStream(seed, 0, -1, 0)
	for k := 0; k < sc.HotItems; k++ {
		doc := r.corpus.Docs[k%r.corpus.Len()]
		q := analyzeReq(nluNames[k%3], doc.Body)
		if k%5 == 0 {
			q = searchReq(searchNames[(k/5)%2], pick.threeWords(doc.Body), false)
		}
		w.items = append(w.items, q)
		w.bodies = append(w.bodies, q.body())
	}
	return w, nil
}

// prepare fills the response cache: one call per hot item, each checked
// against the engine itself and kept as the bytes every repeat must equal.
func (w *invokeHot) prepare() error {
	f := newFacadeCaller(w.r, "/v1/invoke")
	defer f.close()
	w.want = make([][]byte, len(w.items))
	for k, q := range w.items {
		if err := f.post(context.Background(), w.bodies[k]); err != nil {
			return err
		}
		if err := f.decodeInvoke(q); err != nil {
			return err
		}
		if err := f.matchesDirect(q); err != nil {
			return err
		}
		w.want[k] = append([]byte(nil), f.reply.Bytes()...)
	}
	return nil
}

type invokeHotCaller struct {
	facadeCaller
	w      *invokeHot
	s      *stream
	n      int // ops issued
	offset int // added to every Zipf rank, re-drawn every hotRotate ops
	k      int
	seen   probeInputs
}

// hotRotate is how many ops a caller keeps one mapping of Zipf ranks onto
// items. Zipf(1.1) puts 45% of the ops on five ranks; were rank 0 always
// item 0, a run would time the reply sizes of that seed's five hottest
// items (ops_per_s spread 5% across seeds). Moving the mapping lets a run
// average over all items while the skew at any moment stays Zipf and all
// items stay cached.
const hotRotate = 256

func (w *invokeHot) caller(c int) caller {
	return &invokeHotCaller{facadeCaller: newFacadeCaller(w.r, "/v1/invoke"), w: w, s: newStream(w.seed, 0, c, len(w.items))}
}

func (c *invokeHotCaller) issue(ctx context.Context) error {
	if c.n%hotRotate == 0 {
		c.offset = c.s.intn(len(c.w.items))
	}
	c.n++
	c.k = (c.s.hot() + c.offset) % len(c.w.items)
	return c.post(ctx, c.w.bodies[c.k])
}

func (c *invokeHotCaller) check() error {
	q := c.w.items[c.k]
	if err := c.decodeInvoke(q); err != nil {
		return err
	}
	if !bytes.Equal(c.reply.Bytes(), c.w.want[c.k]) {
		return fmt.Errorf("hot item %d: reply differs from its first reply", c.k)
	}
	c.seen.keep(q)
	return nil
}

func (c *invokeHotCaller) hash() uint64          { return c.s.h }
func (c *invokeHotCaller) captured() probeInputs { return c.seen }

// ---- invoke-cold -----------------------------------------------------

type invokeCold struct {
	r    *rig
	seed int64
}

func startInvokeCold(r *rig, _ scale, seed int64, _ int) (instance, error) {
	return &invokeCold{r: r, seed: seed}, nil
}

func (w *invokeCold) prepare() error { return nil }

type invokeColdCaller struct {
	facadeCaller
	s        *stream
	id       int
	n        int // ops issued
	searches int
	q        invokeReq
	seen     probeInputs
}

func (w *invokeCold) caller(c int) caller {
	return &invokeColdCaller{facadeCaller: newFacadeCaller(w.r, "/v1/invoke"), s: newStream(w.seed, 1, c, 0), id: c}
}

// uniqueText makes a document body no other op of the run sends, so the
// response cache cannot answer it.
func uniqueText(body string, caller, n int) string {
	return body + " Ref c" + strconv.Itoa(caller) + "n" + strconv.Itoa(n) + "."
}

func (c *invokeColdCaller) issue(ctx context.Context) error {
	docs := c.r.corpus.Docs
	doc := docs[c.s.intn(len(docs))]
	if c.s.intn(5) == 0 {
		c.q = searchReq(searchNames[c.searches%2], c.s.threeWords(doc.Body), c.searches%2 == 1)
		c.searches++
	} else {
		c.q = analyzeReq(nluNames[c.n%3], uniqueText(doc.Body, c.id, c.n))
	}
	c.n++
	return c.post(ctx, c.q.body())
}

func (c *invokeColdCaller) check() error {
	if err := c.decodeInvoke(c.q); err != nil {
		return err
	}
	c.seen.keep(c.q)
	if c.n%100 == 0 {
		return c.matchesDirect(c.q)
	}
	return nil
}

func (c *invokeColdCaller) hash() uint64          { return c.s.h }
func (c *invokeColdCaller) captured() probeInputs { return c.seen }

// ---- invoke-ranked ---------------------------------------------------

type invokeRanked struct {
	r    *rig
	seed int64
}

func startInvokeRanked(r *rig, _ scale, seed int64, _ int) (instance, error) {
	return &invokeRanked{r: r, seed: seed}, nil
}

func (w *invokeRanked) prepare() error { return nil }

// categoryReply is the facade's /v1/invoke-category answer.
type categoryReply struct {
	Response service.Response `json:"response"`
	Attempts []struct {
		Service string `json:"service"`
		Error   string `json:"error"`
	} `json:"attempts"`
}

type invokeRankedCaller struct {
	facadeCaller
	s       *stream
	id      int
	n       int
	text    string
	lastTry categoryReply
	seen    probeInputs
}

func (w *invokeRanked) caller(c int) caller {
	return &invokeRankedCaller{facadeCaller: newFacadeCaller(w.r, "/v1/invoke-category"), s: newStream(w.seed, 2, c, 0), id: c}
}

func (c *invokeRankedCaller) issue(ctx context.Context) error {
	docs := c.r.corpus.Docs
	c.text = uniqueText(docs[c.s.intn(len(docs))].Body, c.id, c.n)
	c.n++
	body, err := json.Marshal(invokeBody{Category: "nlu", Request: service.Request{Op: "analyze", Text: c.text}})
	if err != nil {
		return err
	}
	return c.post(ctx, body)
}

func (c *invokeRankedCaller) check() error {
	if c.status != http.StatusOK {
		return fmt.Errorf("invoke-category: HTTP %d: %.200s", c.status, c.reply.Bytes())
	}
	c.lastTry = categoryReply{}
	if err := json.Unmarshal(c.reply.Bytes(), &c.lastTry); err != nil {
		return fmt.Errorf("invoke-category: envelope: %w", err)
	}
	if _, err := nlu.DecodeAnalysis(c.lastTry.Response); err != nil {
		return err
	}
	n := len(c.lastTry.Attempts)
	if n == 0 || c.lastTry.Attempts[n-1].Error != "" {
		return fmt.Errorf("invoke-category: no successful attempt in %v", c.lastTry.Attempts)
	}
	c.seen.attempts += int64(n)
	served := c.lastTry.Attempts[n-1].Service
	q := analyzeReq(served, c.text)
	c.seen.keep(q)
	if c.n%100 == 0 {
		c.resp = c.lastTry.Response
		return c.matchesDirect(q)
	}
	return nil
}

func (c *invokeRankedCaller) hash() uint64          { return c.s.h }
func (c *invokeRankedCaller) captured() probeInputs { return c.seen }

// ---- analyze-loop ----------------------------------------------------

type analyzeLoop struct {
	r       *rig
	seed    int64
	workers int
}

func startAnalyzeLoop(r *rig, _ scale, seed int64, callers int) (instance, error) {
	return &analyzeLoop{r: r, seed: seed, workers: callers}, nil
}

// bootKey is saved during set-up so the first op has a previous run to
// load.
const bootKey = "run-boot"

var bootPayload = []byte(`{"boot":true}`)

func (w *analyzeLoop) prepare() error { return w.r.kb.SaveRemote(bootKey, bootPayload) }

// savedRun is what one op persists: the Fig. 3 aggregates and the primary
// analyses they came from.
type savedRun struct {
	Query      string                      `json:"query"`
	Entities   []aggregate.EntityCount     `json:"entities"`
	Sentiments []aggregate.EntitySentiment `json:"sentiments"`
	Keywords   []nlu.Keyword               `json:"keywords"`
	Analyses   []nlu.Analysis              `json:"analyses"`
}

type analyzeLoopCaller struct {
	w        *analyzeLoop
	s        *stream
	cfg      pipeline.AnalysisConfig
	n        int
	prevKey  string
	prevData []byte
	saved    []byte // this op's payload
	loaded   []byte // what LoadRemote returned for prevKey
	res      *pipeline.AnalysisResult
	promoted rdf.QueryResult // what the op's query read back
	seen     probeInputs
}

func (w *analyzeLoop) caller(c int) caller {
	r := w.r
	return &analyzeLoopCaller{
		w: w, s: newStream(w.seed, 3, c, 0), prevKey: bootKey, prevData: bootPayload,
		// Key names hold no '/': remotestore's transport concatenates the
		// raw key into /kv/{key}, so "runs/1" answers 404 (see README).
		cfg: pipeline.AnalysisConfig{
			Client: r.client, Search: "search-g", NLU: []string{"nlu-alpha", "nlu-gamma"},
			FetchURL: r.web.URL, HTTPClient: r.fetch, Limit: 10, Workers: w.workers,
			Sentiments: r.sink,
		},
	}
}

// kbWindow is how many runs keep their own facts in the knowledge base; op
// i retires run i-kbWindow. A graph that kept every run would make Infer,
// whose first round scans the whole graph, slower with every op; a graph
// that kept none is saturated after the warm-up and Infer derives nothing.
const kbWindow = 64

func runSubject(n int) string { return "run:" + strconv.Itoa(n) }

func (c *analyzeLoopCaller) issue(ctx context.Context) error {
	root := spanFrom(ctx)
	kbase := c.w.r.kb
	docs := c.w.r.corpus.Docs
	query := c.s.threeWords(docs[c.s.intn(len(docs))].Body)
	cfg := c.cfg
	cfg.Expand = c.n%2 == 1
	n := c.n
	key := "run-" + strconv.Itoa(n)
	c.n++

	sp := root.child(lPipeline)
	res, err := cfg.Run(withSpan(ctx, sp), query)
	sp.end()
	if err != nil {
		return err
	}
	c.res = res

	sp = root.child(lKBAssert)
	for _, s := range res.Sentiments {
		if err = kbase.AddFact(runSubject(n), pMentions, s.EntityID); err != nil {
			break
		}
	}
	sp.end()
	if err != nil {
		return err
	}

	sp = root.child(lKBInfer)
	derived, err := kbase.Infer()
	sp.end()
	if err != nil {
		return err
	}
	c.seen.derived += int64(derived)

	sp = root.child(lKBQuery)
	c.promoted, err = kbase.Query("SELECT ?e WHERE { <" + runSubject(n) + "> <" + pPromotes + "> ?e }")
	sp.end()
	if err != nil {
		return err
	}

	sp = root.child(lKBRetire)
	g := kbase.Graph()
	for _, st := range g.Match(rdf.Statement{S: rdf.NewIRI(runSubject(n - kbWindow))}) {
		g.Remove(st)
	}
	sp.end()

	c.saved, err = json.Marshal(savedRun{Query: res.Query, Entities: res.Entities, Sentiments: res.Sentiments, Keywords: res.Keywords, Analyses: res.Analyses})
	if err != nil {
		return err
	}
	sp = root.child(lKBSave)
	unbind := sp.bind()
	err = kbase.SaveRemote(key, c.saved)
	unbind()
	sp.end()
	if err != nil {
		return err
	}

	sp = root.child(lKBLoad)
	unbind = sp.bind()
	c.loaded, err = kbase.LoadRemote(c.prevKey)
	unbind()
	sp.end()
	if err != nil {
		return err
	}
	return nil
}

func (c *analyzeLoopCaller) check() error {
	if !bytes.Equal(c.loaded, c.prevData) {
		return fmt.Errorf("LoadRemote(%s): %d bytes, saved %d", c.prevKey, len(c.loaded), len(c.prevData))
	}
	c.prevKey, c.prevData = "run-"+strconv.Itoa(c.n-1), c.saved
	res := c.res
	if len(res.Docs) != res.Hits || len(res.Skipped) != 0 {
		return fmt.Errorf("query %q: %d of %d hits analysed", res.Query, len(res.Docs), res.Hits)
	}
	// The query reads what Infer derived from this run's own facts: nothing
	// but entities the run mentioned.
	mentioned := map[string]bool{}
	for _, s := range res.Sentiments {
		mentioned[s.EntityID] = true
	}
	for _, row := range c.promoted.Rows {
		if len(row) != 1 || !mentioned[row[0].Value] {
			return fmt.Errorf("query %q: run promotes %v, which it did not mention", res.Query, row)
		}
	}
	c.seen.promoted += int64(len(c.promoted.Rows))
	for _, st := range res.Stages {
		switch st.Name {
		case "fetch":
			c.seen.fetchStageNS += int64(st.Mean)
		case "analyze":
			c.seen.analyzeStageNS += int64(st.Mean)
		}
	}
	if len(c.seen.results) < probeSample && len(res.Analyses) > 0 {
		c.seen.results = append(c.seen.results, res)
		c.seen.keep(searchReq(c.cfg.Search, res.Query, c.n%2 == 0)) // op c.n-1 expanded when odd
		for _, engine := range c.cfg.NLU {
			c.seen.keep(analyzeReq(engine, res.Docs[0].Doc.Text))
		}
	}
	return nil
}

func (c *analyzeLoopCaller) hash() uint64          { return c.s.h }
func (c *analyzeLoopCaller) captured() probeInputs { return c.seen }
func (c *analyzeLoopCaller) close()                {}

// ---- store-mixed -----------------------------------------------------

type storeMixed struct {
	r       *rig
	seed    int64
	callers int
	keys    []string // sorted, what Keys must return
	pages   [][]byte // rendered corpus pages the values are built from
}

const pagePool = 512

func startStoreMixed(r *rig, sc scale, seed int64, callers int) (instance, error) {
	w := &storeMixed{r: r, seed: seed, callers: callers}
	for k := 0; k < sc.StoreKeys; k++ {
		w.keys = append(w.keys, storeKey(k))
	}
	sort.Strings(w.keys)
	for i := 0; i < pagePool && i < r.corpus.Len(); i++ {
		w.pages = append(w.pages, []byte(webcorpus.RenderHTML(r.corpus.Docs[i])))
	}
	return w, nil
}

func storeKey(k int) string { return "obj-" + strconv.Itoa(k) }

// makeValue builds a value of n consecutive pages behind a key|len|crc32|
// header, which lets every Get verify what it read without knowing which
// Put wrote it.
func (w *storeMixed) makeValue(key string, first, n int) []byte {
	var body []byte
	for i := 0; i < n; i++ {
		body = append(body, w.pages[(first+i)%len(w.pages)]...)
	}
	head := key + "|" + strconv.Itoa(len(body)) + "|" + strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10) + "|"
	out := make([]byte, 0, len(head)+len(body))
	return append(append(out, head...), body...)
}

func verifyValue(key string, v []byte) error {
	parts := bytes.SplitN(v, []byte("|"), 4)
	if len(parts) != 4 {
		return fmt.Errorf("get %s: no header in %d bytes", key, len(v))
	}
	n, err1 := strconv.Atoi(string(parts[1]))
	sum, err2 := strconv.ParseUint(string(parts[2]), 10, 32)
	body := parts[3]
	if err1 != nil || err2 != nil || string(parts[0]) != key || n != len(body) || uint32(sum) != crc32.ChecksumIEEE(body) {
		return fmt.Errorf("get %s: header %s|%s|%s does not match its %d-byte body", key, parts[0], parts[1], parts[2], len(body))
	}
	return nil
}

// prepare preloads every key, the callers splitting the key space.
func (w *storeMixed) prepare() error {
	var wg sync.WaitGroup
	errs := make([]error, w.callers)
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := newStream(w.seed, 4, -1-c, 0)
			for k := c; k < len(w.keys); k += w.callers {
				key := storeKey(k)
				v := w.makeValue(key, s.intn(len(w.pages)), 1+s.intn(16))
				if err := w.r.cluster.Put(key, v); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type storeCaller struct {
	w    *storeMixed
	s    *stream
	kind int // 0 get, 1 put, 2 keys
	key  string
	got  []byte
	keys []string
}

func (w *storeMixed) caller(c int) caller {
	return &storeCaller{w: w, s: newStream(w.seed, 4, c, len(w.keys))}
}

func (c *storeCaller) issue(ctx context.Context) error {
	defer spanFrom(ctx).bind()()
	st := c.w.r.store
	u := c.s.intn(100)
	var err error
	switch {
	case u < 69:
		c.kind, c.key = 0, storeKey(c.s.hot())
		c.got, err = st.Get(c.key)
	case u < 99:
		c.kind, c.key = 1, storeKey(c.s.hot())
		v := c.w.makeValue(c.key, c.s.intn(len(c.w.pages)), 1+c.s.intn(16))
		err = st.Put(c.key, v)
	default:
		c.kind = 2
		c.keys, err = st.Keys()
	}
	return err
}

func (c *storeCaller) check() error {
	switch c.kind {
	case 0:
		return verifyValue(c.key, c.got)
	case 2:
		if len(c.keys) != len(c.w.keys) {
			return fmt.Errorf("keys: %d names, want %d", len(c.keys), len(c.w.keys))
		}
		for i, k := range c.keys {
			if k != c.w.keys[i] {
				return fmt.Errorf("keys: name %d is %q, want %q", i, k, c.w.keys[i])
			}
		}
	}
	return nil
}

func (c *storeCaller) hash() uint64          { return c.s.h }
func (c *storeCaller) captured() probeInputs { return probeInputs{} }
func (c *storeCaller) close()                {}
