package rdf_test

// What a graph remembers between ForwardChain calls, pinned through
// ChainStats.Seeded — the size of round one's delta — instead of a clock.
// history_test.go checks the same machinery against the reference engine
// on random histories; these are the named cases.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func sub(a, b string) rdf.Statement {
	return rdf.Statement{S: rdf.NewIRI(a), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: rdf.NewIRI(b)}
}

func mustChain(t *testing.T, g *rdf.Graph, rules []rdf.Rule) rdf.ChainStats {
	t.Helper()
	stats, err := rdf.ForwardChainStats(g, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// subclassChain returns a graph holding c0 ⊂ c1 ⊂ … ⊂ c(n-1), not yet
// chained.
func subclassChain(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i+1 < n; i++ {
		g.MustAdd(sub(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
	}
	return g
}

func TestChainSeededCountsWhatChanged(t *testing.T) {
	rules := rdf.TransitiveRules()
	g := subclassChain(10)
	base := g.Len()

	first := mustChain(t, g, rules)
	if first.Seeded != base {
		t.Errorf("first call seeded round one with %d statements, want the whole graph (%d)", first.Seeded, base)
	}
	if want := 10*9/2 - base; first.Derived != want {
		t.Fatalf("first call derived %d, want %d", first.Derived, want)
	}

	idle := mustChain(t, g, rules)
	if idle.Seeded != 0 || idle.Derived != 0 || idle.Derivations != 0 || idle.Rounds != 1 {
		t.Errorf("idle re-chain = %+v, want one round seeded with nothing", idle)
	}

	// Two new facts, one of them twice and one already stored: the delta
	// is the two.
	g.MustAdd(sub("c9", "c10"))
	g.MustAdd(sub("c9", "c10"))
	g.MustAdd(sub("b", "c0"))
	g.MustAdd(sub("c0", "c1"))
	grown := mustChain(t, g, rules)
	if grown.Seeded != 2 {
		t.Errorf("after adding 2 new facts round one was seeded with %d", grown.Seeded)
	}
	// b and c0..c9 each gain c10 (c9 ⊂ c10 itself was asserted), and b
	// gains c1..c9.
	if want := 10 + 9; grown.Derived != want {
		t.Errorf("after adding 2 new facts derived %d, want %d", grown.Derived, want)
	}

	// A fact added and taken away again leaves nothing to seed from.
	g.MustAdd(sub("x", "y"))
	g.Remove(sub("x", "y"))
	if again := mustChain(t, g, rules); again.Seeded != 0 || again.Derived != 0 {
		t.Errorf("add-then-remove: %+v, want nothing seeded or derived", again)
	}
}

func TestChainPutsBackWhatTheRulesStillConclude(t *testing.T) {
	rules := rdf.TransitiveRules()
	g := subclassChain(4) // c0 ⊂ c1 ⊂ c2 ⊂ c3
	mustChain(t, g, rules)
	closed := g.Len()

	// A derived fact whose premises survive comes back, and counts as
	// added by the call.
	if !g.Remove(sub("c0", "c2")) {
		t.Fatal("c0 ⊂ c2 was not derived")
	}
	back := mustChain(t, g, rules)
	if back.Derived != 1 || back.Seeded != 1 || !g.Has(sub("c0", "c2")) || g.Len() != closed {
		t.Errorf("removed derived fact: %+v, has=%v len=%d, want it put back alone", back, g.Has(sub("c0", "c2")), g.Len())
	}

	// A base fact does not: Remove deletes one triple, and what was derived
	// through it stays (c0 ⊂ c3 still follows from c0 ⊂ c2 ⊂ c3).
	g.Remove(sub("c0", "c1"))
	gone := mustChain(t, g, rules)
	if gone.Derived != 0 || gone.Seeded != 0 || g.Has(sub("c0", "c1")) || g.Len() != closed-1 {
		t.Errorf("removed base fact: %+v, has=%v len=%d, want it to stay out", gone, g.Has(sub("c0", "c1")), g.Len())
	}

	// A premise-free rule's conclusion is re-concluded from nothing.
	axiom := []rdf.Rule{{Name: "axiom", Conclusions: []rdf.Statement{sub("top", "top")}}}
	h := rdf.NewGraph()
	mustChain(t, h, axiom)
	h.Remove(sub("top", "top"))
	if st := mustChain(t, h, axiom); st.Derived != 1 || !h.Has(sub("top", "top")) {
		t.Errorf("removed axiom: %+v, has=%v, want it back", st, h.Has(sub("top", "top")))
	}

	// A removal that only a new fact makes derivable again is found by
	// the rounds, not by the one-step check.
	k := subclassChain(3) // c0 ⊂ c1 ⊂ c2
	mustChain(t, k, rules)
	k.Remove(sub("c1", "c2"))
	k.Remove(sub("c0", "c2"))
	mustChain(t, k, rules)
	k.MustAdd(sub("c1", "c2"))
	if st := mustChain(t, k, rules); st.Seeded != 1 || st.Derived != 1 || !k.Has(sub("c0", "c2")) {
		t.Errorf("re-added premise: %+v, want c0 ⊂ c2 derived again from a delta of 1", st)
	}
}

func TestChainFallsBackToTheWholeGraph(t *testing.T) {
	transitive := rdf.TransitiveRules()
	wholeGraph := func(t *testing.T, g *rdf.Graph, rules []rdf.Rule, why string) {
		t.Helper()
		n := g.Len()
		if st := mustChain(t, g, rules); st.Seeded != n {
			t.Errorf("%s: round one seeded with %d of %d statements, want the whole graph", why, st.Seeded, n)
		}
		if st := mustChain(t, g, rules); st.Seeded != 0 {
			t.Errorf("%s: the call after it seeded %d, want 0", why, st.Seeded)
		}
	}

	t.Run("rule set changed", func(t *testing.T) {
		g := subclassChain(6)
		mustChain(t, g, transitive)
		g.MustAdd(rdf.Statement{S: rdf.NewIRI("x"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("c0")})
		wholeGraph(t, g, rdf.RDFSRules(), "different rule set")
		if !g.Has(rdf.Statement{S: rdf.NewIRI("x"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("c5")}) {
			t.Error("rdfs9 did not reach facts stored before the rule set changed")
		}
	})

	t.Run("rule edited in place", func(t *testing.T) {
		// Equal by value is what counts: the caller's slice is the same
		// one, its contents are not.
		rules := rdf.TransitiveRules()
		g := subclassChain(6)
		mustChain(t, g, rules)
		rules[0].Conclusions[0].P = rdf.NewIRI("ancestor")
		wholeGraph(t, g, rules, "rule edited in place")
		if !g.Has(rdf.Statement{S: rdf.NewIRI("c0"), P: rdf.NewIRI("ancestor"), O: rdf.NewIRI("c2")}) {
			t.Error("the edited rule was not applied to old facts")
		}
		// An equal copy in a fresh slice is the same rule set.
		cp := append([]rdf.Rule{}, rules...)
		if st := mustChain(t, g, cp); st.Seeded != 0 {
			t.Errorf("equal rule set in a new slice seeded %d, want 0", st.Seeded)
		}
	})

	t.Run("round cap hit", func(t *testing.T) {
		g := subclassChain(12)
		if _, err := rdf.ForwardChain(g, transitive, 2); err == nil {
			t.Fatal("a 12-chain converged in 2 rounds")
		}
		wholeGraph(t, g, transitive, "after a non-converging call")
		if g.Len() != 12*11/2 {
			t.Errorf("closure has %d statements, want %d", g.Len(), 12*11/2)
		}
	})

	t.Run("non-ground conclusion", func(t *testing.T) {
		g := subclassChain(6)
		mustChain(t, g, transitive)
		bad := []rdf.Rule{{
			Name:        "bad",
			Premises:    []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI("p"), O: rdf.NewVar("y")}},
			Conclusions: []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI("q")}},
		}}
		if _, err := rdf.ForwardChain(g, bad, 0); err == nil || !strings.Contains(err.Error(), "non-ground") {
			t.Fatalf("non-ground conclusion: err = %v", err)
		}
		unbound := []rdf.Rule{{Name: "unbound", Conclusions: []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI("q"), O: rdf.NewIRI("o")}}}}
		if _, err := rdf.ForwardChain(g, unbound, 0); err == nil || !strings.Contains(err.Error(), "unbound") {
			t.Fatalf("unbound conclusion variable: err = %v", err)
		}
		wholeGraph(t, g, transitive, "after a call that failed to compile")
	})

	t.Run("changes past half the graph", func(t *testing.T) {
		g := subclassChain(5)
		mustChain(t, g, transitive)
		for i, n := 0, g.Len(); i <= n; i++ {
			g.MustAdd(sub(fmt.Sprintf("d%d", i), fmt.Sprintf("d%d", i+1)))
		}
		wholeGraph(t, g, transitive, "bulk load")
	})

	t.Run("naive chaining in between", func(t *testing.T) {
		g := subclassChain(6)
		mustChain(t, g, transitive)
		g.MustAdd(rdf.Statement{S: rdf.NewIRI("x"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("c0")})
		if _, err := rdf.ForwardChainNaive(g, rdf.RDFSRules(), 0); err != nil {
			t.Fatal(err)
		}
		wholeGraph(t, g, transitive, "after ForwardChainNaive")
	})
}

// TestChainIdleAllocs pins the satellite's allocation target: compiled
// rules and every per-rule scratch slice live with the remembered rule
// set, so chaining a graph nothing happened to allocates next to nothing.
func TestChainIdleAllocs(t *testing.T) {
	rules := append(append([]rdf.Rule{}, rdf.TransitiveRules()...), rdf.RDFSRules()...)
	g := subclassChain(20)
	g.MustAdd(rdf.Statement{S: rdf.NewIRI("x"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("c0")})
	mustChain(t, g, rules)
	allocs := testing.AllocsPerRun(50, func() {
		if n, err := rdf.ForwardChain(g, rules, 0); n != 0 || err != nil {
			t.Fatalf("idle chain = (%d, %v)", n, err)
		}
	})
	if allocs > 4 {
		t.Errorf("idle ForwardChain on a converged graph allocates %.0f times, want <= 4", allocs)
	}
	t.Logf("idle ForwardChain: %.0f allocs", allocs)
}
