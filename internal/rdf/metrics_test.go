package rdf

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

func TestInstrumentRecordsSolveAndChain(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.MustAdd(st(fmt.Sprintf("n%d", i), "next", fmt.Sprintf("n%d", i+1)))
	}
	set := metrics.NewSet()
	g.Instrument(set)

	patterns := []Statement{
		{S: NewVar("a"), P: NewIRI("next"), O: NewVar("b")},
		{S: NewVar("b"), P: NewIRI("next"), O: NewVar("c")},
	}
	if got := g.Solve(patterns); len(got) == 0 {
		t.Fatal("no solutions for two-hop pattern")
	}

	hist := set.Histogram("richsdk_rdf_solve_seconds", "")
	if got := hist.Snapshot().Count; got != 1 {
		t.Errorf("solve histogram count = %d, want 1", got)
	}
	if got := set.Counter("richsdk_rdf_solve_patterns_total", "").Value(); got != 2 {
		t.Errorf("patterns counter = %d, want 2", got)
	}

	rules := []Rule{{
		Name:        "trans",
		Premises:    []Statement{{S: NewVar("x"), P: NewIRI("next"), O: NewVar("y")}, {S: NewVar("y"), P: NewIRI("next"), O: NewVar("z")}},
		Conclusions: []Statement{{S: NewVar("x"), P: NewIRI("reach"), O: NewVar("z")}},
	}}
	stats, err := ForwardChainStats(g, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Derived == 0 {
		t.Fatal("chain derived nothing; test premise broken")
	}
	if got := set.Histogram("richsdk_rdf_chain_seconds", "").Snapshot().Count; got != 1 {
		t.Errorf("chain histogram count = %d, want 1", got)
	}
	if got := set.Counter("richsdk_rdf_chain_rounds_total", "").Value(); got != uint64(stats.Rounds) {
		t.Errorf("rounds counter = %d, want %d", got, stats.Rounds)
	}
	if got := set.Counter("richsdk_rdf_chain_derived_total", "").Value(); got != uint64(stats.Derived) {
		t.Errorf("derived counter = %d, want %d", got, stats.Derived)
	}
	if stats.Seeded != 20 {
		t.Errorf("first chain seeded %d triples, want the graph's 20", stats.Seeded)
	}
	seeded := set.Counter("richsdk_rdf_chain_seed_triples_total", "")
	if got := seeded.Value(); got != uint64(stats.Seeded) {
		t.Errorf("seed counter = %d, want %d", got, stats.Seeded)
	}
	// One new fact: the next chain is seeded with it alone, and the
	// counter says so.
	g.MustAdd(st("n21", "next", "n22"))
	if _, err := ForwardChainStats(g, rules, 0); err != nil {
		t.Fatal(err)
	}
	if got := seeded.Value(); got != uint64(stats.Seeded)+1 {
		t.Errorf("seed counter after one new fact = %d, want %d", got, stats.Seeded+1)
	}
	gauge := set.Gauge("richsdk_intern_dict_size", "", metrics.Label{Name: "dict", Value: "rdf"})
	if got := gauge.Value(); got != int64(g.dict.Len()) {
		t.Errorf("dict gauge = %d, want %d", got, g.dict.Len())
	}
}

func TestInstrumentNilDetaches(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("a", "p", "b"))
	set := metrics.NewSet()
	g.Instrument(set)
	g.Solve([]Statement{{S: NewVar("s"), P: NewIRI("p"), O: NewVar("o")}})
	hist := set.Histogram("richsdk_rdf_solve_seconds", "")
	if got := hist.Snapshot().Count; got != 1 {
		t.Fatalf("solve histogram count = %d, want 1", got)
	}
	g.Instrument(nil)
	g.Solve([]Statement{{S: NewVar("s"), P: NewIRI("p"), O: NewVar("o")}})
	if got := hist.Snapshot().Count; got != 1 {
		t.Errorf("detached graph still recorded: count = %d, want 1", got)
	}
	// Dictionary growth after detach must not move the (detached) gauge.
	gauge := set.Gauge("richsdk_intern_dict_size", "", metrics.Label{Name: "dict", Value: "rdf"})
	before := gauge.Value()
	g.MustAdd(st("fresh-subject", "fresh-pred", "fresh-object"))
	if got := gauge.Value(); got != before {
		t.Errorf("detached dict gauge moved: %d -> %d", before, got)
	}
}
