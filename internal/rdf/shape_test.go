package rdf_test

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/raceflag"
	"repro/internal/rdf"
	"repro/internal/rdf/rdfref"
)

// rdfShapeRules is the linear reachability rule set TestRDFInferenceShape
// chains over: on a linear rule set semi-naive evaluation derives every
// fact exactly once, which is the property the guard pins.
func rdfShapeRules() []rdf.Rule {
	edge := rdf.NewIRI("edge")
	reaches := rdf.NewIRI("reaches")
	x, y, z := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")
	return []rdf.Rule{
		{
			Name:        "reach-base",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: y}},
		},
		{
			Name:        "reach-step",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}, {S: y, P: reaches, O: z}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: z}},
		},
	}
}

// TestRDFInferenceShape guards the semi-naive inference engine by what a seed
// determines: on a 1000-node linear chain the semi-naive evaluator must
// reach the exact C(1000,2) closure while firing each rule exactly once
// per derived fact (ChainStats.Derivations == Derived), chaining the
// converged closure again must seed its round with nothing and fire no
// rule (ChainStats.Seeded == 0: the graph remembers its fixpoint), and
// the round-buffered naive strategy must add the identical fact set round
// for round. The wall clock is logged, not asserted: both engines run
// capped at the same round budget — the full naive closure takes minutes
// on the pre-PR string-keyed baseline — and the measured margin is >50x.
// `make bench-rdf` measures the speed side (BenchmarkForwardChainTransitive,
// BenchmarkSolveJoin).
func TestRDFInferenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("inference guard skipped in -short mode")
	}
	const n = 1000
	rules := rdfShapeRules()
	stmts := make([]rdf.Statement, 0, n-1)
	for i := 0; i < n-1; i++ {
		stmts = append(stmts, rdf.Statement{
			S: rdf.NewIRI(fmt.Sprintf("n%04d", i)),
			P: rdf.NewIRI("edge"),
			O: rdf.NewIRI(fmt.Sprintf("n%04d", i+1)),
		})
	}
	newGraph := func() *rdf.Graph {
		g := rdf.NewGraph()
		if _, err := g.AddAll(stmts); err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Correctness: exact closure, each fact derived exactly once.
	g := newGraph()
	stats, err := rdf.ForwardChainStats(g, rules, n+100)
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; stats.Derived != want {
		t.Fatalf("semi-naive closure derived %d facts, want C(%d,2) = %d", stats.Derived, n, want)
	}
	if stats.Derivations != stats.Derived {
		t.Errorf("semi-naive fired %d rules for %d facts — re-derivation crept back in", stats.Derivations, stats.Derived)
	}
	if again, err := rdf.ForwardChainStats(g, rules, 0); err != nil || again.Derived != 0 || again.Seeded != 0 || again.Derivations != 0 {
		t.Errorf("re-chaining the converged graph: %+v, err %v; want nothing seeded, fired or derived", again, err)
	}

	// Naive and semi-naive must add the identical fact set when capped at
	// the same round count (both buffer a round's conclusions).
	const roundCap = 60
	gSemi, gNaive := newGraph(), newGraph()
	semiStats, _ := rdf.ForwardChainStats(gSemi, rules, roundCap)
	naiveStats, _ := rdf.ForwardChainNaive(gNaive, rules, roundCap)
	if semiStats.Derived != naiveStats.Derived || gSemi.Len() != gNaive.Len() {
		t.Errorf("round-capped engines diverged: semi %+v (len %d), naive %+v (len %d)",
			semiStats, gSemi.Len(), naiveStats, gNaive.Len())
	}
	if naiveStats.Derivations <= semiStats.Derivations {
		t.Errorf("naive fired %d rules vs semi-naive %d — naive should re-derive prior rounds",
			naiveStats.Derivations, semiStats.Derivations)
	}

	if raceflag.Enabled {
		t.Skip("timing leg skipped under the race detector: instrumentation distorts relative costs")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	semiRun := func() time.Duration {
		g := newGraph()
		start := time.Now()
		rdf.ForwardChainStats(g, rules, roundCap)
		return time.Since(start)
	}
	baselineRun := func() time.Duration {
		ref := rdfref.New()
		for _, s := range stmts {
			ref.MustAdd(s)
		}
		start := time.Now()
		rdfref.ForwardChain(ref, rules, roundCap)
		return time.Since(start)
	}
	semi, base := semiRun(), baselineRun()
	t.Logf("round-capped (%d rounds) N=%d chain: semi-naive %v, pre-PR naive baseline %v, speedup %.1fx",
		roundCap, n, semi, base, float64(base)/float64(semi))
}
