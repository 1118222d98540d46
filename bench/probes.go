package main

import (
	"context"
	"os"
	"sync"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/metrics"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/remotestore"
	"repro/internal/ring"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// counters is one reading of everything the rig and its callers count.
// The per-layer counts are the difference of two readings, taken after the
// warm-up and after the timed phase.
type counters struct {
	cache     cache.Stats
	store     remotestore.Stats
	nodeReqs  []int64
	nodeBytes []int64
	codecIn   int64
	codecOut  int64
	backend   [numLayers]int64
	seen      probeInputs // the callers' own sums, and the inputs they kept for the probes
}

func readCounters(b *bound) counters {
	r := b.r
	c := counters{cache: r.client.CacheStats(), store: r.cluster.Stats(), codecIn: r.codec.bytesIn.Load(), codecOut: r.codec.bytesOut.Load()}
	for _, n := range r.nodes {
		c.nodeReqs = append(c.nodeReqs, n.Requests())
		c.nodeBytes = append(c.nodeBytes, n.BytesIn())
	}
	for _, s := range r.backends {
		c.backend[s.layer] += s.calls.Load()
	}
	for _, cl := range b.callers {
		c.seen.add(cl.captured())
	}
	return c
}

// layerProbe turns a traced phase into the per-layer metrics. It is made
// after the warm-up, when it takes the "before" reading, so each count
// below is the timed phase's own.
type layerProbe struct {
	p         passConfig
	b         *bound
	before    counters
	rankFirst float64
}

func newLayerProbe(p passConfig, b *bound) *layerProbe {
	// The rank probe invokes a backend, so it comes before the reading.
	lp := &layerProbe{p: p, b: b, rankFirst: probeRank(b.r)}
	lp.before = readCounters(b)
	return lp
}

// timeCalls calls fn n times and returns the total in ns.
func timeCalls(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0))
}

// meanOf is the mean of n calls of fn in ns; 0 when there is nothing to call.
func meanOf(n int, fn func(i int)) float64 {
	return ratio(timeCalls(n, fn), float64(n))
}

const (
	probeCalls       = 32     // calls of a probe whose cost is tens of microseconds or more
	probeCallsCheap  = 200000 // calls of a probe whose cost is tens of nanoseconds
	probeParamSize   = 1000   // the latency parameter (argument bytes) the predictor probe asks about
	probeExtractDocs = 64
)

var probeReq = service.Request{Op: "analyze", Text: "Acme praised the German market."}

// afterObservation times fn right after one more invocation of the NLU
// category's best-ranked service (the one invoke-category traffic builds
// its history on) has been recorded, probeCalls times over, and returns
// the mean in µs.
// The predictor refits lazily, on the first prediction after a new
// observation, which is the state every invoke-category op finds it in; a
// probe that only repeated fn would time the cached model.
func afterObservation(r *rig, fn func()) float64 {
	var total float64
	for i := 0; i < probeCalls; i++ {
		_, _, _ = r.client.InvokeCategory(context.Background(), "nlu", probeReq, core.NoCache()) // registered backends that cannot fail
		total += timeCalls(1, func(int) { fn() })
	}
	return total / probeCalls / 1e3
}

// probeRank times Client.Rank over the NLU category: the Equation 1 path
// invoke-category takes before it calls anything.
func probeRank(r *rig) float64 {
	return afterObservation(r, func() {
		_, _ = r.client.Rank("nlu", probeReq) // the category is registered; only its cost is read
	})
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeDocstore replays the documents and analyses of captured pipeline
// results through a fresh docstore under workDir: a search snapshot per
// result, then every document's analysis once as a miss (lookup, then
// persist) and once as a hit (read back). The docstore is not in the timed
// loop (see README, "Findings"), so this probe is all that measures it.
func probeDocstore(workDir string, results []*pipeline.AnalysisResult) map[string]float64 {
	out := map[string]float64{"docstore.save_search_us": 0, "docstore.analyze_miss_us": 0, "docstore.analyze_hit_us": 0}
	dir, err := os.MkdirTemp(workDir, "docstore-")
	if err != nil {
		return out
	}
	defer os.RemoveAll(dir)
	store, err := docstore.New(dir, nil)
	if err != nil {
		return out
	}
	out["docstore.save_search_us"] = meanOf(len(results), func(i int) {
		res := results[i]
		docs := make([]docstore.SavedDoc, len(res.Docs))
		for j, d := range res.Docs {
			docs[j] = d.Doc
		}
		_, _ = store.SaveSearch(res.Query, "search-g", docs) // only its cost is read
	}) / 1e3
	type item struct {
		text     string
		analysis nlu.Analysis
	}
	var items []item
	for _, res := range results {
		for j, d := range res.Docs {
			items = append(items, item{d.Doc.Text, res.Analyses[j]})
		}
	}
	once := func(i int) {
		it := items[i]
		_, _, _ = store.AnalyzeOnceE(it.text, "nlu-alpha", func(string) (nlu.Analysis, error) { return it.analysis, nil }) // only its cost is read
	}
	// Documents repeat across results, so some first calls already hit;
	// the pipeline sees the same mix.
	out["docstore.analyze_miss_us"] = meanOf(len(items), once) / 1e3
	out["docstore.analyze_hit_us"] = meanOf(len(items), once) / 1e3
	return out
}

// metrics computes every per-layer metric of the traced phase ph. st
// summarises ph, ref the untraced reference phase run on the same op
// stream.
func (lp *layerProbe) metrics(ph phase, st, ref phaseStats) map[string]float64 {
	r := lp.b.r
	ops := float64(ph.attempts)
	tot := lp.b.rec.totals(ph.firstOp)
	before, after := lp.before, readCounters(lp.b)
	m := map[string]float64{}
	set := func(name string, v float64) { m[name] = v }

	// ---- spans ----
	set("core.facade_self_us", tot[lFacade].meanSelf(1e3))
	set("core.chain_self_us", tot[lChain].meanSelf(1e3))
	set("load.http_self_us", tot[lHTTP].meanSelf(1e3))
	set("nlu.backend_us", tot[lBackendNLU].meanDur(1e3))
	set("search.backend_us", tot[lBackendSearch].meanDur(1e3))
	set("pipeline.run_ms", tot[lPipeline].meanDur(1e6))
	set("pipeline.self_ms", tot[lPipeline].meanSelf(1e6))
	set("webcorpus.fetch_us", tot[lFetch].meanDur(1e3))
	set("webcorpus.handler_us", tot[lWebHandler].meanDur(1e3))
	set("kb.sink_us", tot[lSink].meanDur(1e3))
	set("kb.assert_us", tot[lKBAssert].meanDur(1e3))
	set("kb.infer_ms", tot[lKBInfer].meanDur(1e6))
	set("kb.query_us", tot[lKBQuery].meanDur(1e3))
	set("kb.retire_us", tot[lKBRetire].meanDur(1e3))
	set("kb.save_ms", tot[lKBSave].meanDur(1e6))
	set("kb.load_ms", tot[lKBLoad].meanDur(1e6))
	set("remotestore.put_us", tot[lStorePut].meanDur(1e3))
	set("remotestore.get_us", tot[lStoreGet].meanDur(1e3))
	set("remotestore.keys_ms", tot[lStoreKeys].meanDur(1e6))
	storeCalls := tot[lStorePut].Count + tot[lStoreGet].Count + tot[lStoreKeys].Count
	storeSelf := tot[lStorePut].SelfNS + tot[lStoreGet].SelfNS + tot[lStoreKeys].SelfNS
	set("remotestore.self_us", ratio(float64(storeSelf), float64(storeCalls))/1e3)
	set("codec.encode_us", tot[lEncode].meanDur(1e3))
	set("codec.decode_us", tot[lDecode].meanDur(1e3))
	set("node.service_us", tot[lNode].meanDur(1e3))
	// What no span inside the op covers is the load generator's own work
	// (building the request, reading the clock); it is reported, not hidden.
	set("load.unattributed_frac", ratio(float64(tot[lOp].SelfNS), float64(tot[lOp].DurNS)))

	// ---- counters, as deltas over the phase ----
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	set("cache.hits", hits)
	set("cache.misses", misses)
	set("cache.evictions", float64(after.cache.Evictions-before.cache.Evictions))
	set("cache.hit_ratio", ratio(hits, hits+misses))

	nluCalls := float64(after.backend[lBackendNLU] - before.backend[lBackendNLU])
	searchCalls := float64(after.backend[lBackendSearch] - before.backend[lBackendSearch])
	set("nlu.calls", nluCalls)
	set("search.calls", searchCalls)
	set("core.backend_calls", nluCalls+searchCalls)

	set("remotestore.client_cache_hits", float64(after.store.CacheHits-before.store.CacheHits))
	set("remotestore.remote_gets", float64(after.store.RemoteGets-before.store.RemoteGets))
	set("remotestore.remote_puts", float64(after.store.RemotePuts-before.store.RemotePuts))
	set("remotestore.bytes_sent", float64(after.store.BytesSent-before.store.BytesSent))
	set("remotestore.read_failovers", float64(after.store.ReadFailovers-before.store.ReadFailovers))
	set("remotestore.offline_writes", float64(after.store.OfflineWrites-before.store.OfflineWrites))
	set("remotestore.dropped_writes", float64(after.store.DroppedWrites-before.store.DroppedWrites))

	in, out := float64(after.codecIn-before.codecIn), float64(after.codecOut-before.codecOut)
	set("codec.bytes_in", in)
	set("codec.bytes_out", out)
	set("codec.ratio", ratio(out, in))

	var reqs, bytesIn, maxReqs float64
	for i := range r.nodes {
		d := float64(after.nodeReqs[i] - before.nodeReqs[i])
		reqs += d
		if d > maxReqs {
			maxReqs = d
		}
		bytesIn += float64(after.nodeBytes[i] - before.nodeBytes[i])
	}
	set("node.requests", reqs)
	set("node.bytes_in", bytesIn)
	set("node.imbalance", ratio(maxReqs, reqs/float64(len(r.nodes))))

	seen := after.seen
	set("core.failover_attempts", ratio(float64(seen.attempts-before.seen.attempts), ops))
	runs := float64(tot[lPipeline].Count)
	set("pipeline.fetch_stage_ms", ratio(float64(seen.fetchStageNS-before.seen.fetchStageNS), runs)/1e6)
	set("pipeline.analyze_stage_ms", ratio(float64(seen.analyzeStageNS-before.seen.analyzeStageNS), runs)/1e6)
	set("rdf.derived", float64(seen.derived-before.seen.derived))
	set("kb.query_rows", float64(seen.promoted-before.seen.promoted))
	set("kb.graph_triples", float64(r.kb.Graph().Len()))

	// ---- direct calls into public functions, after the phase ----
	set("core.rank_call_us_first", lp.rankFirst)
	set("core.rank_call_us_last", probeRank(r))
	ranked, _ := r.client.Select("nlu", probeReq) // the category is registered
	set("predict.call_us_last", afterObservation(r, func() {
		_, _ = r.client.PredictLatency(ranked, []float64{probeParamSize}) // a registered name; only its cost is read
	}))

	var nluNS, nluN float64
	for engine, texts := range seen.texts {
		eng := r.nlu[engine]
		nluNS += timeCalls(len(texts), func(i int) { eng.Analyze(texts[i]) })
		nluN += float64(len(texts))
	}
	analyzeUS := ratio(nluNS, nluN) / 1e3
	queryUS := meanOf(len(seen.queries), func(i int) {
		q := seen.queries[i]
		r.search[q.engine].Search(q.query, q.opts)
	}) / 1e3
	set("nlu.analyze_us", analyzeUS)
	set("search.query_us", queryUS)
	// Backend span minus the engine called directly on a sample of the same
	// inputs: simsvc plus the engine's service adapter (response encoding).
	overheadNS := float64(tot[lBackendNLU].DurNS+tot[lBackendSearch].DurNS) -
		1e3*(analyzeUS*float64(tot[lBackendNLU].Count)+queryUS*float64(tot[lBackendSearch].Count))
	set("simsvc.overhead_us", ratio(overheadNS, float64(tot[lBackendNLU].Count+tot[lBackendSearch].Count))/1e3)

	set("aggregate.call_us", meanOf(len(seen.results), func(i int) {
		a := seen.results[i].Analyses
		aggregate.Entities(a)
		aggregate.Sentiments(a)
		aggregate.Keywords(a, 10)
	})/1e3)
	for name, v := range probeDocstore(lp.p.workDir, seen.results) {
		set(name, v)
	}

	pages := make([]string, 0, probeExtractDocs)
	for i := 0; i < probeExtractDocs && i < r.corpus.Len(); i++ {
		pages = append(pages, webcorpus.RenderHTML(r.corpus.Docs[i]))
	}
	set("webcorpus.extract_us", meanOf(len(pages), func(i int) { webcorpus.ExtractText(pages[i]) })/1e3)

	mon := metrics.NewMonitor("probe")
	obs := metrics.Observation{Latency: time.Millisecond, Params: []float64{probeParamSize}}
	set("metrics.record_ns", meanOf(probeCallsCheap, func(int) { mon.Record(obs) }))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < lp.p.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeCallsCheap; i++ {
				mon.Record(obs)
			}
		}()
	}
	wg.Wait()
	// Wall time per Record with every caller recording into one monitor,
	// as MonitorStage does for one hot service.
	set("metrics.record_contended_ns", float64(time.Since(t0))/float64(probeCallsCheap*lp.p.callers))

	rg := ring.New(ring.WithSeed(1))
	rg.Add(r.cluster.Nodes()...)
	set("ring.lookup_ns", meanOf(probeCallsCheap, func(i int) { rg.LookupN(storeKey(i&4095), 2) }))

	// ---- process ----
	set("go.gc_pause_ms", float64(ph.gcPauseNS)/1e6)
	set("go.gc_cycles", float64(ph.gcCycles))
	set("go.alloc_bytes_per_op", float64(ph.allocBytes)/ops)
	set("trace.overhead_frac", 1-ratio(st.OpsPerSec, ref.OpsPerSec))
	return m
}
