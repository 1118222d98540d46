package kb

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// benchKB builds a knowledge base with a subclass chain, one instance at
// the bottom, and a handful of user rules — enough that Infer and Prove
// exercise both the composed-rule cache and the reasoners.
func benchKB(b *testing.B, chain int) *KB {
	b.Helper()
	k, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < chain-1; i++ {
		if err := k.AddFact(fmt.Sprintf("class:%03d", i), rdf.RDFSSubClassOf, fmt.Sprintf("class:%03d", i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := k.AddFact("item:leaf", rdf.RDFType, "class:000"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := k.AddRule(rdf.Rule{
			Name:        fmt.Sprintf("tag-%d", i),
			Premises:    []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI(fmt.Sprintf("p%d", i)), O: rdf.NewVar("y")}},
			Conclusions: []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI("tagged"), O: rdf.NewVar("y")}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return k
}

// BenchmarkKBInfer measures repeated Infer calls on a converged KB: after
// the first call every subsequent one pays the composed-rule cache lookup
// (PR 5: AddRule invalidates, Infer no longer rebuilds the slice),
// validating the rules and comparing them with the set the graph
// remembers, and one round over an empty delta — no rule is compiled, no
// triple scanned, nothing allocated.
func BenchmarkKBInfer(b *testing.B) {
	k := benchKB(b, 40)
	if _, err := k.Infer(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Infer(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBProve measures goal-directed proof on the cached rule set.
func BenchmarkKBProve(b *testing.B) {
	k := benchKB(b, 40)
	goal := rdf.Statement{
		S: rdf.NewIRI("item:leaf"),
		P: rdf.NewIRI(rdf.RDFType),
		O: rdf.NewIRI("class:020"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bindings, err := k.Prove(goal)
		if err != nil {
			b.Fatal(err)
		}
		if len(bindings) == 0 {
			b.Fatal("goal not proven")
		}
	}
}

// BenchmarkKBInferWindow is the inference half of the Fig. 5 loop as the
// repository benchmark runs it: a ~2 000-triple graph at its fixpoint, and
// per iteration one run's 13 new facts, an Infer, and the retirement of
// the run that left the 64-run window (its 13 facts, the 13 promotions
// and two rdf:types derived from them — 28 triples; the benchmark's runs
// average 27). The cost follows the 13 and the 28, not the 2 000.
func BenchmarkKBInferWindow(b *testing.B) {
	const window, perRun, entities = 64, 13, 62
	k := newLoopKB(b)
	for e := 0; e < entities; e++ {
		if err := k.AddFact(entityName(e), "kb:webSentiment", "favorable"); err != nil {
			b.Fatal(err)
		}
	}
	assert := func(run int) {
		for j := 0; j < perRun; j++ {
			if err := k.AddFact(runName(run), "kb:mentions", entityName((run*7+j*3)%entities)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Background that is there for good, to bring the graph to size.
	for run := -1; k.Graph().Len() < 2000-window*(2*perRun+2); run-- {
		assert(run)
	}
	for run := 0; run < window; run++ {
		assert(run)
	}
	mustInfer(b, k)
	b.Logf("graph at %d triples", k.Graph().Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assert(window + i)
		if n := mustInfer(b, k); n != perRun+2 {
			b.Fatalf("Infer derived %d facts, want %d", n, perRun+2)
		}
		retire(k, i)
	}
}
