package rdf

import (
	"repro/internal/metrics"
)

// rdfObs bundles a graph's instruments. All fields are nil-safe, so an
// uninstrumented graph (obs == nil) pays one nil check per Solve or
// ForwardChain call and nothing per triple.
type rdfObs struct {
	solve    *metrics.Histogram
	chain    *metrics.Histogram
	patterns *metrics.Counter
	rounds   *metrics.Counter
	derived  *metrics.Counter
	seeded   *metrics.Counter
}

// Instrument registers the graph's instrument families in set and turns
// on query- and inference-path instrumentation: Solve and ForwardChain
// latency histograms, plan pattern-count and chain rounds/derived/seeded
// counters, and a live dictionary-size gauge. Calling it with a nil set
// detaches the instruments again. Safe for concurrent use with readers
// and writers; the instruments themselves are lock-free.
func (g *Graph) Instrument(set *metrics.Set) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if set == nil {
		g.obs = nil
		g.dict.WatchLen(nil)
		return
	}
	g.obs = &rdfObs{
		solve: set.Histogram("richsdk_rdf_solve_seconds",
			"Latency of basic-graph-pattern solves (planner + join execution)."),
		chain: set.Histogram("richsdk_rdf_chain_seconds",
			"Latency of semi-naive forward-chaining runs."),
		patterns: set.Counter("richsdk_rdf_solve_patterns_total",
			"Triple patterns planned across all solves."),
		rounds: set.Counter("richsdk_rdf_chain_rounds_total",
			"Forward-chaining rounds evaluated."),
		derived: set.Counter("richsdk_rdf_chain_derived_total",
			"Facts derived by forward chaining."),
		seeded: set.Counter("richsdk_rdf_chain_seed_triples_total",
			"Triples in forward chaining's first-round delta: the whole graph, or what changed since the last fixpoint."),
	}
	g.dict.WatchLen(set.Gauge("richsdk_intern_dict_size",
		"Distinct terms in an interned symbol table.",
		metrics.Label{Name: "dict", Value: "rdf"}))
}
