package rdf

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func st(s, p, o string) Statement {
	return Statement{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

func TestAddHasRemove(t *testing.T) {
	g := NewGraph()
	s := st("java:HashMap", "implements", "java:Map")
	added, err := g.Add(s)
	if err != nil || !added {
		t.Fatalf("Add = (%v, %v)", added, err)
	}
	if !g.Has(s) {
		t.Error("Has = false after Add")
	}
	added, err = g.Add(s)
	if err != nil || added {
		t.Errorf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
	if !g.Remove(s) {
		t.Error("Remove = false")
	}
	if g.Has(s) || g.Len() != 0 {
		t.Error("statement survived Remove")
	}
	if g.Remove(s) {
		t.Error("second Remove = true")
	}
}

func TestAddRejectsNonGround(t *testing.T) {
	g := NewGraph()
	if _, err := g.Add(Statement{S: NewVar("x"), P: NewIRI("p"), O: NewIRI("o")}); err == nil {
		t.Error("variable statement stored")
	}
	if _, err := g.Add(Statement{}); err == nil {
		t.Error("zero statement stored")
	}
}

func TestLiteralAndIRIDistinct(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Statement{S: NewIRI("s"), P: NewIRI("p"), O: NewIRI("v")})
	g.MustAdd(Statement{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral("v")})
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2 (IRI and literal objects distinct)", g.Len())
	}
}

func TestMatchPatterns(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "knows", "bob"))
	g.MustAdd(st("alice", "knows", "carol"))
	g.MustAdd(st("bob", "knows", "carol"))
	g.MustAdd(st("alice", "likes", "go"))

	if got := g.Match(Statement{S: NewIRI("alice")}); len(got) != 3 {
		t.Errorf("Match(alice,*,*) = %d, want 3", len(got))
	}
	if got := g.Match(Statement{P: NewIRI("knows")}); len(got) != 3 {
		t.Errorf("Match(*,knows,*) = %d, want 3", len(got))
	}
	if got := g.Match(Statement{O: NewIRI("carol")}); len(got) != 2 {
		t.Errorf("Match(*,*,carol) = %d, want 2", len(got))
	}
	if got := g.Match(Statement{S: NewIRI("alice"), P: NewIRI("knows")}); len(got) != 2 {
		t.Errorf("Match(alice,knows,*) = %d, want 2", len(got))
	}
	if got := g.Match(Statement{}); len(got) != 4 {
		t.Errorf("Match(*,*,*) = %d, want 4", len(got))
	}
	if got := g.Match(st("nobody", "knows", "anything")); len(got) != 0 {
		t.Errorf("no-match returned %d", len(got))
	}
	// Variables act as wildcards in Match.
	if got := g.Match(Statement{S: NewVar("x"), P: NewIRI("likes"), O: NewVar("y")}); len(got) != 1 {
		t.Errorf("var pattern = %d, want 1", len(got))
	}
}

func TestSolveJoin(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "knows", "bob"))
	g.MustAdd(st("bob", "knows", "carol"))
	g.MustAdd(st("carol", "knows", "dave"))
	// Friends of friends of alice.
	bindings := g.Solve([]Statement{
		{S: NewIRI("alice"), P: NewIRI("knows"), O: NewVar("x")},
		{S: NewVar("x"), P: NewIRI("knows"), O: NewVar("y")},
	})
	if len(bindings) != 1 {
		t.Fatalf("bindings = %v", bindings)
	}
	if bindings[0]["x"].Value != "bob" || bindings[0]["y"].Value != "carol" {
		t.Errorf("binding = %v", bindings[0])
	}
}

func TestSolveSharedVariableConsistency(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("a", "p", "b"))
	g.MustAdd(st("b", "q", "c"))
	g.MustAdd(st("x", "p", "y"))
	g.MustAdd(st("z", "q", "w"))
	// ?m must be the same in both patterns: only a->b->c chains.
	bindings := g.Solve([]Statement{
		{S: NewVar("s"), P: NewIRI("p"), O: NewVar("m")},
		{S: NewVar("m"), P: NewIRI("q"), O: NewVar("o")},
	})
	if len(bindings) != 1 {
		t.Fatalf("bindings = %v, want 1", bindings)
	}
}

func TestQuerySelect(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "rdf:type", "Person"))
	g.MustAdd(st("bob", "rdf:type", "Person"))
	g.MustAdd(st("acme", "rdf:type", "Company"))
	res, err := g.Query("SELECT ?who WHERE { ?who <rdf:type> <Person> }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "who" {
		t.Errorf("Vars = %v", res.Vars)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Rows = %v", res.Rows)
	}
	if res.Rows[0][0].Value != "alice" || res.Rows[1][0].Value != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryMultiPattern(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "worksFor", "acme"))
	g.MustAdd(st("acme", "locatedIn", "us"))
	g.MustAdd(st("bob", "worksFor", "globex"))
	g.MustAdd(st("globex", "locatedIn", "de"))
	res, err := g.Query("SELECT ?p ?c WHERE { ?p <worksFor> ?e . ?e <locatedIn> ?c }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestQueryLiterals(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Statement{S: NewIRI("alice"), P: NewIRI("name"), O: NewLiteral("Alice A.")})
	res, err := g.Query(`SELECT ?n WHERE { <alice> <name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "Alice A." || res.Rows[0][0].Kind != Literal {
		t.Errorf("rows = %v", res.Rows)
	}
	// Literal with a dot inside must not break pattern splitting.
	res, err = g.Query(`SELECT ?s WHERE { ?s <name> "Alice A." }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("literal match rows = %v", res.Rows)
	}
}

func TestQuerySelectStar(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("a", "p", "b"))
	res, err := g.Query("SELECT * WHERE { ?s <p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 || res.Vars[0] != "s" || res.Vars[1] != "o" {
		t.Errorf("Vars = %v", res.Vars)
	}
}

func TestQueryErrors(t *testing.T) {
	g := NewGraph()
	bad := []string{
		"FIND ?x WHERE { ?x <p> ?y }",
		"SELECT ?x { ?x <p> ?y }",
		"SELECT ?x WHERE ?x <p> ?y",
		"SELECT x WHERE { ?x <p> ?y }",
		"SELECT ?x WHERE { }",
		"SELECT ?x WHERE { ?x <p> }",
		"SELECT ?z WHERE { ?x <p> ?y }",
		"SELECT WHERE { ?x <p> ?y }",
	}
	for _, q := range bad {
		if _, err := g.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

func TestTransitiveReasoner(t *testing.T) {
	g := NewGraph()
	// Class lattice: dachshund < dog < mammal < animal.
	g.MustAdd(st("dachshund", RDFSSubClassOf, "dog"))
	g.MustAdd(st("dog", RDFSSubClassOf, "mammal"))
	g.MustAdd(st("mammal", RDFSSubClassOf, "animal"))
	added, err := ForwardChain(g, TransitiveRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// New: dachshund<mammal, dachshund<animal, dog<animal.
	if added != 3 {
		t.Errorf("derived %d facts, want 3", added)
	}
	if !g.Has(st("dachshund", RDFSSubClassOf, "animal")) {
		t.Error("transitive closure incomplete")
	}
}

func TestRDFSRulesDeriveTypes(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("employs", RDFSDomain, "Company"))
	g.MustAdd(st("employs", RDFSRange, "Person"))
	g.MustAdd(st("acme", "employs", "alice"))
	g.MustAdd(st("Person", RDFSSubClassOf, "Agent"))
	if _, err := ForwardChain(g, RDFSRules(), 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Statement{
		st("acme", RDFType, "Company"), // rdfs2
		st("alice", RDFType, "Person"), // rdfs3
		st("alice", RDFType, "Agent"),  // rdfs9 via rdfs3
	} {
		if !g.Has(want) {
			t.Errorf("missing derived fact %s", want)
		}
	}
}

func TestRDFS7PropertyInheritance(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("hasCEO", RDFSSubPropertyOf, "hasEmployee"))
	g.MustAdd(st("acme", "hasCEO", "alice"))
	if _, err := ForwardChain(g, RDFSRules(), 0); err != nil {
		t.Fatal(err)
	}
	if !g.Has(st("acme", "hasEmployee", "alice")) {
		t.Error("rdfs7 inheritance missing")
	}
}

func TestUserDefinedRuleForward(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "parentOf", "bob"))
	g.MustAdd(st("bob", "parentOf", "carol"))
	grandparent := Rule{
		Name: "grandparent",
		Premises: []Statement{
			{S: NewVar("x"), P: NewIRI("parentOf"), O: NewVar("y")},
			{S: NewVar("y"), P: NewIRI("parentOf"), O: NewVar("z")},
		},
		Conclusions: []Statement{
			{S: NewVar("x"), P: NewIRI("grandparentOf"), O: NewVar("z")},
		},
	}
	added, err := ForwardChain(g, []Rule{grandparent}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || !g.Has(st("alice", "grandparentOf", "carol")) {
		t.Errorf("grandparent rule derived %d", added)
	}
}

func TestForwardChainIdempotent(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("a", RDFSSubClassOf, "b"))
	g.MustAdd(st("b", RDFSSubClassOf, "c"))
	if _, err := ForwardChain(g, TransitiveRules(), 0); err != nil {
		t.Fatal(err)
	}
	added, err := ForwardChain(g, TransitiveRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("second run derived %d new facts, want 0", added)
	}
}

func TestRuleValidation(t *testing.T) {
	bad := Rule{
		Name:        "bad",
		Premises:    []Statement{{S: NewVar("x"), P: NewIRI("p"), O: NewVar("y")}},
		Conclusions: []Statement{{S: NewVar("x"), P: NewIRI("q"), O: NewVar("z")}}, // z unbound
	}
	if err := bad.Validate(); err == nil {
		t.Error("unbound conclusion variable accepted")
	}
	if _, err := ForwardChain(NewGraph(), []Rule{bad}, 0); err == nil {
		t.Error("ForwardChain accepted invalid rule")
	}
}

func TestBackwardChainFacts(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "knows", "bob"))
	g.MustAdd(st("alice", "knows", "carol"))
	bindings, err := BackwardChain(g, nil, Statement{S: NewIRI("alice"), P: NewIRI("knows"), O: NewVar("who")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %v", bindings)
	}
}

func TestBackwardChainViaRule(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("alice", "parentOf", "bob"))
	g.MustAdd(st("bob", "parentOf", "carol"))
	grandparent := Rule{
		Name: "grandparent",
		Premises: []Statement{
			{S: NewVar("x"), P: NewIRI("parentOf"), O: NewVar("y")},
			{S: NewVar("y"), P: NewIRI("parentOf"), O: NewVar("z")},
		},
		Conclusions: []Statement{
			{S: NewVar("x"), P: NewIRI("grandparentOf"), O: NewVar("z")},
		},
	}
	// The fact is NOT materialized; backward chaining must derive it.
	bindings, err := BackwardChain(g, []Rule{grandparent},
		Statement{S: NewIRI("alice"), P: NewIRI("grandparentOf"), O: NewVar("g")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 || bindings[0]["g"].Value != "carol" {
		t.Errorf("bindings = %v", bindings)
	}
	// Ground goal that holds.
	bindings, err = BackwardChain(g, []Rule{grandparent}, st("alice", "grandparentOf", "carol"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Errorf("ground goal bindings = %v", bindings)
	}
	// Ground goal that does not hold.
	bindings, err = BackwardChain(g, []Rule{grandparent}, st("bob", "grandparentOf", "alice"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 0 {
		t.Errorf("false goal bindings = %v", bindings)
	}
}

func TestBackwardChainRecursiveRuleTerminates(t *testing.T) {
	g := NewGraph()
	g.MustAdd(st("a", "edge", "b"))
	g.MustAdd(st("b", "edge", "c"))
	g.MustAdd(st("c", "edge", "a")) // cycle
	reach := []Rule{
		{
			Name:        "reach-base",
			Premises:    []Statement{{S: NewVar("x"), P: NewIRI("edge"), O: NewVar("y")}},
			Conclusions: []Statement{{S: NewVar("x"), P: NewIRI("reaches"), O: NewVar("y")}},
		},
		{
			Name: "reach-step",
			Premises: []Statement{
				{S: NewVar("x"), P: NewIRI("edge"), O: NewVar("m")},
				{S: NewVar("m"), P: NewIRI("reaches"), O: NewVar("y")},
			},
			Conclusions: []Statement{{S: NewVar("x"), P: NewIRI("reaches"), O: NewVar("y")}},
		},
	}
	bindings, err := BackwardChain(g, reach, st("a", "reaches", "c"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) == 0 {
		t.Error("a should reach c")
	}
}

func TestParseTerm(t *testing.T) {
	tests := []struct {
		in   string
		want Term
	}{
		{"<http://x/y>", NewIRI("http://x/y")},
		{`"hello world"`, NewLiteral("hello world")},
		{"_:b1", NewBlank("b1")},
		{"?x", NewVar("x")},
		{"bare", NewIRI("bare")},
	}
	for _, tt := range tests {
		got, err := parseTerm(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("parseTerm(%q) = (%v, %v), want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := parseTerm("  "); err == nil {
		t.Error("empty term accepted")
	}
}

func TestStatementString(t *testing.T) {
	s := Statement{S: NewIRI("a"), P: NewIRI("b"), O: NewLiteral("c")}
	if got := s.String(); !strings.Contains(got, "<a>") || !strings.Contains(got, `"c"`) {
		t.Errorf("String = %q", got)
	}
}

func TestGraphConcurrent(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.MustAdd(st(fmt.Sprintf("s%d", w), fmt.Sprintf("p%d", i%10), fmt.Sprintf("o%d", i)))
				g.Match(Statement{S: NewIRI(fmt.Sprintf("s%d", w))})
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != 8*200 {
		t.Errorf("Len = %d, want 1600", g.Len())
	}
}

func TestForwardChainLargeLattice(t *testing.T) {
	// Chain of 50 classes: closure should be n*(n-1)/2 total subclass
	// facts.
	g := NewGraph()
	n := 50
	for i := 0; i < n-1; i++ {
		g.MustAdd(st(fmt.Sprintf("c%02d", i), RDFSSubClassOf, fmt.Sprintf("c%02d", i+1)))
	}
	if _, err := ForwardChain(g, TransitiveRules(), 0); err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) / 2
	if g.Len() != want {
		t.Errorf("closure size = %d, want %d", g.Len(), want)
	}
}
