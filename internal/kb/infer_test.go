package kb

// Infer on a long-lived knowledge base seeds forward chaining with what
// changed since the last call (rdf.ForwardChainStats). These tests hold
// the KB-level consequences: a new rule still reaches old facts, and a KB
// that inferred after every step ends up — for Query, Prove and
// InferWithConfidence alike — where one that inferred once does.

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// loopRules are the Fig. 5 loop's user rules as the repository benchmark
// enters them: a run promotes the entities it mentions whose outlook is
// "promote", and an entity's outlook follows its web sentiment.
func loopRules() []rdf.Rule {
	v, iri, lit := rdf.NewVar, rdf.NewIRI, rdf.NewLiteral
	return []rdf.Rule{
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
}

// newLoopKB returns a KB holding the loop's rules and its two schema
// facts: what kb:mentions applies to, and what that is a kind of.
func newLoopKB(tb testing.TB) *KB {
	tb.Helper()
	k, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range loopRules() {
		if err := k.AddRule(r); err != nil {
			tb.Fatal(err)
		}
	}
	for _, f := range [][3]string{{"kb:mentions", rdf.RDFSDomain, "kb:Run"}, {"kb:Run", rdf.RDFSSubClassOf, "kb:Activity"}} {
		if err := k.AddFact(f[0], f[1], f[2]); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

func runName(i int) string    { return fmt.Sprintf("run:%d", i) }
func entityName(i int) string { return fmt.Sprintf("entity:%d", i) }

// retire removes everything stored under one run, derived facts included
// — the benchmark's window.
func retire(k *KB, run int) {
	g := k.Graph()
	for _, s := range g.Match(rdf.Statement{S: rdf.NewIRI(runName(run))}) {
		g.Remove(s)
	}
}

func mustInfer(tb testing.TB, k *KB) int {
	tb.Helper()
	n, err := k.Infer()
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

func TestInferAfterAddRuleReachesOldFacts(t *testing.T) {
	k := newLoopKB(t)
	for i := 0; i < 4; i++ {
		if err := k.AddFact(runName(i), "kb:mentions", entityName(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustInfer(t, k)
	if n := mustInfer(t, k); n != 0 {
		t.Fatalf("second Infer derived %d facts from nothing new", n)
	}
	// The facts the new rule fires on were all there at the last fixpoint:
	// only a whole-graph round finds them.
	err := k.AddRule(rdf.Rule{
		Name:        "mentioned-by",
		Premises:    []rdf.Statement{{S: rdf.NewVar("r"), P: rdf.NewIRI("kb:mentions"), O: rdf.NewVar("e")}},
		Conclusions: []rdf.Statement{{S: rdf.NewVar("e"), P: rdf.NewIRI("kb:mentionedBy"), O: rdf.NewVar("r")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := mustInfer(t, k); n != 4 {
		t.Errorf("Infer after AddRule derived %d facts, want 4", n)
	}
	res, err := k.Query("SELECT ?e WHERE { ?e <kb:mentionedBy> <run:2> }")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Value != entityName(2) {
		t.Errorf("query over the new rule's conclusions = %v, %v", res.Rows, err)
	}
	// And the KB is back to paying for what changed.
	if err := k.AddFact(runName(9), "kb:mentions", entityName(9)); err != nil {
		t.Fatal(err)
	}
	if n := mustInfer(t, k); n != 3 { // kb:mentionedBy, rdf:type kb:Run, rdf:type kb:Activity
		t.Errorf("Infer after one more fact derived %d, want 3", n)
	}
}

// bindingStrings renders bindings order-independently.
func bindingStrings(bs []rdf.Binding) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		keys := make([]string, 0, len(b))
		for key := range b {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		s := ""
		for _, key := range keys {
			s += key + "=" + b[key].String() + ";"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestIncrementalInferAgreesWithFromScratch(t *testing.T) {
	const runs, window, entities = 24, 6, 7
	mentions := func(i int) []string {
		return []string{entityName(i % entities), entityName((i * 3) % entities), entityName((i*5 + 1) % entities)}
	}
	sentiment := func(k *KB, i int) {
		t.Helper()
		mood := "favorable"
		if i%3 == 0 {
			mood = "unfavorable"
		}
		if err := k.AddFactWithConfidence(entityName(i%entities), "kb:webSentiment", mood, 0.5+float64(i%5)/10); err != nil {
			t.Fatal(err)
		}
	}

	// One KB lives through the runs: assert, infer, retire — every step
	// of the Fig. 5 loop, every Infer seeded with that step's changes.
	live := newLoopKB(t)
	for i := 0; i < runs; i++ {
		sentiment(live, i)
		for _, e := range mentions(i) {
			if err := live.AddFact(runName(i), "kb:mentions", e); err != nil {
				t.Fatal(err)
			}
		}
		mustInfer(t, live)
		if i >= window {
			retire(live, i-window)
		}
	}
	mustInfer(t, live)

	// The other is handed what survived and infers once, from scratch.
	fresh := newLoopKB(t)
	for i := 0; i < runs; i++ {
		sentiment(fresh, i)
		if i >= runs-window {
			for _, e := range mentions(i) {
				if err := fresh.AddFact(runName(i), "kb:mentions", e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mustInfer(t, fresh)

	if got, want := live.Graph().All(), fresh.Graph().All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d incremental Infers the graph holds %d statements, from scratch %d", runs+1, len(got), len(want))
	}
	for _, goal := range []rdf.Statement{
		{S: rdf.NewIRI(runName(runs - 1)), P: rdf.NewIRI("kb:promotes"), O: rdf.NewVar("e")},
		{S: rdf.NewVar("r"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("kb:Activity")},
		{S: rdf.NewIRI(runName(0)), P: rdf.NewIRI("kb:promotes"), O: rdf.NewVar("e")}, // retired
	} {
		got, err := live.Prove(goal)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Prove(goal)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := bindingStrings(got), bindingStrings(want); !reflect.DeepEqual(g, w) {
			t.Errorf("Prove(%s) = %v, from scratch %v", goal, g, w)
		}
	}
	if _, err := live.InferWithConfidence(0); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.InferWithConfidence(0); err != nil {
		t.Fatal(err)
	}
	all := live.Graph().All()
	if want := fresh.Graph().All(); !reflect.DeepEqual(all, want) {
		t.Fatalf("InferWithConfidence left %d statements, from scratch %d", len(all), len(want))
	}
	for _, s := range all {
		if got, want := live.FactConfidence(s.S.Value, s.P.Value, s.O.Value), fresh.FactConfidence(s.S.Value, s.P.Value, s.O.Value); got != want {
			t.Errorf("confidence of %s = %v, from scratch %v", s, got, want)
		}
	}
}

// TestInferConcurrentWithWritersAndReaders is for the race detector: the
// standing fixpoint is new graph state that AddFact, Remove and Infer all
// write. Whatever the interleaving, one more Infer must leave the graph
// where chaining the statements present before it from scratch does.
func TestInferConcurrentWithWritersAndReaders(t *testing.T) {
	k := newLoopKB(t)
	for e := 0; e < 5; e++ {
		if err := k.AddFact(entityName(e), "kb:webSentiment", "favorable"); err != nil {
			t.Fatal(err)
		}
	}
	const writers, perWriter = 3, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				run := w*perWriter + i
				if err := k.AddFact(runName(run), "kb:mentions", entityName(run%7)); err != nil {
					t.Error(err)
					return
				}
				if i >= 8 {
					retire(k, run-8)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := k.Infer(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := k.Query("SELECT ?r ?e WHERE { ?r <kb:promotes> ?e }"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	before := k.Graph().All()
	derived := mustInfer(t, k)
	ref := newLoopKB(t)
	if _, err := ref.Graph().AddAll(before); err != nil {
		t.Fatal(err)
	}
	if want := mustInfer(t, ref); derived != want {
		t.Errorf("final Infer derived %d, from scratch %d", derived, want)
	}
	if got, want := k.Graph().All(), ref.Graph().All(); !reflect.DeepEqual(got, want) {
		t.Errorf("graph holds %d statements after the final Infer, from scratch %d", len(got), len(want))
	}
}
