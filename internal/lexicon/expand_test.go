package lexicon

import (
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/raceflag"
)

// newTestPMI returns a builder over a fresh dictionary and a function
// that feeds it one document of terms, interning them as the search
// index does.
func newTestPMI() (*PMIBuilder, func(terms ...string)) {
	dict := intern.NewDict[string]()
	b := NewPMIBuilder(dict)
	return b, func(terms ...string) {
		ids := make([]uint32, len(terms))
		for i, t := range terms {
			ids[i] = dict.Intern(t)
		}
		b.AddIDs(ids)
	}
}

func expansionTerms(s []Expansion) []string {
	out := make([]string, len(s))
	for i, e := range s {
		out[i] = e.Term
	}
	return out
}

func hasTerm(s []Expansion, term string) bool {
	for _, e := range s {
		if e.Term == term {
			return true
		}
	}
	return false
}

func TestExpanderGazetteerSynonyms(t *testing.T) {
	x := NewExpander()
	got := x.Expand("usa", 10)
	if !hasTerm(got, "america") {
		t.Errorf("Expand(usa) = %v, want to contain america", expansionTerms(got))
	}
	if !hasTerm(got, "united") || !hasTerm(got, "states") {
		t.Errorf("Expand(usa) = %v, want multi-word surface tokens united/states", expansionTerms(got))
	}
	if hasTerm(got, "usa") {
		t.Error("Expand(usa) returned the term itself")
	}
	for _, e := range got {
		if e.Weight <= 0 || e.Weight > 1 {
			t.Errorf("expansion %q has weight %v outside (0,1]", e.Term, e.Weight)
		}
	}
	// Aliases expand back toward the canonical name's tokens.
	if got := x.Expand("acme", 10); !hasTerm(got, "corporation") {
		t.Errorf("Expand(acme) = %v, want corporation", expansionTerms(got))
	}
	// Unknown terms expand to nothing without a co-occurrence table.
	if got := x.Expand("zzzunknown", 10); len(got) != 0 {
		t.Errorf("Expand(zzzunknown) = %v, want empty", expansionTerms(got))
	}
}

func TestExpanderCapAndOrder(t *testing.T) {
	x := NewExpander()
	full := x.Expand("usa", 10)
	if len(full) < 2 {
		t.Fatalf("need >= 2 expansions for the cap test, got %v", expansionTerms(full))
	}
	capped := x.Expand("usa", 1)
	if len(capped) != 1 {
		t.Fatalf("Expand(usa, 1) returned %d terms", len(capped))
	}
	if capped[0] != full[0] {
		t.Errorf("cap changed the strongest expansion: %v vs %v", capped[0], full[0])
	}
	for i := 1; i < len(full); i++ {
		a, b := full[i-1], full[i]
		if a.Weight < b.Weight || (a.Weight == b.Weight && a.Term >= b.Term) {
			t.Errorf("expansions out of order at %d: %v then %v", i, a, b)
		}
	}
	if got := x.Expand("usa", 0); got != nil {
		t.Errorf("Expand with max 0 = %v, want nil", got)
	}
}

func TestPMIBuilder(t *testing.T) {
	b, addDoc := newTestPMI()
	// "coffee beans" always co-occur; "coffee" and "tax" never share a
	// window (nine fillers keep them pmiWindow apart); background terms
	// spread evenly.
	fillers := strings.Fields("f1 f2 f3 f4 f5 f6 f7 f8 f9")
	for i := 0; i < 20; i++ {
		addDoc(append(append([]string{"coffee", "beans", "roast"}, fillers...), "tax", "policy")...)
		addDoc("tax", "policy", "tax", "policy")
	}
	table := b.Build()
	if !hasTerm(table["coffee"], "beans") {
		t.Errorf("coffee neighbors = %v, want beans", expansionTerms(table["coffee"]))
	}
	if hasTerm(table["coffee"], "tax") {
		t.Errorf("coffee neighbors = %v, tax never co-occurs within the window", expansionTerms(table["coffee"]))
	}
	if !hasTerm(table["tax"], "policy") {
		t.Errorf("tax neighbors = %v, want policy", expansionTerms(table["tax"]))
	}
	for term, ns := range table {
		if len(ns) > pmiMaxNeighbors {
			t.Errorf("%q has %d neighbors, cap is %d", term, len(ns), pmiMaxNeighbors)
		}
		for _, e := range ns {
			if e.Weight <= 0 || e.Weight >= 1 {
				t.Errorf("%q -> %q weight %v outside (0,1)", term, e.Term, e.Weight)
			}
		}
	}
}

// TestPMINeighborListsHaveNoSlack: the table lives as long as the index
// that built it, so the neighbours pmiMaxNeighbors cuts must not stay
// behind as capacity.
func TestPMINeighborListsHaveNoSlack(t *testing.T) {
	b, addDoc := newTestPMI()
	for i := 0; i < 20; i++ {
		addDoc("hub", "a", "b", "c", "d", "e", "f", "g", "h", "i") // hub's window holds a … h
		addDoc("x", "y", "hub", "z")
		addDoc("p", "q", "r", "s", "t", "u", "v", "w", "o")
	}
	table := b.Build()
	full := false
	for term, ns := range table {
		if cap(ns) != len(ns) || len(ns) > pmiMaxNeighbors {
			t.Errorf("%q: neighbour list has len %d, cap %d, pmiMaxNeighbors %d", term, len(ns), cap(ns), pmiMaxNeighbors)
		}
		full = full || len(ns) == pmiMaxNeighbors
	}
	if !full {
		t.Fatal("no neighbour list reached pmiMaxNeighbors: the cut is untested")
	}
}

func TestPMIBuilderDeterministic(t *testing.T) {
	build := func() map[string][]Expansion {
		b, addDoc := newTestPMI()
		for i := 0; i < 10; i++ {
			addDoc("alpha", "beta", "gamma", "delta", "alpha", "beta")
			addDoc("gamma", "delta", "epsilon", "zeta")
		}
		return b.Build()
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("empty table: nothing to compare")
	}
	if len(a) != len(b) {
		t.Fatalf("table sizes differ: %d vs %d", len(a), len(b))
	}
	for term, ns := range a {
		other := b[term]
		if len(ns) != len(other) {
			t.Fatalf("%q neighbor counts differ", term)
		}
		for i := range ns {
			if ns[i] != other[i] {
				t.Errorf("%q neighbor %d: %v vs %v", term, i, ns[i], other[i])
			}
		}
	}
}

func TestExpanderWithCooccurrence(t *testing.T) {
	x := NewExpander().WithCooccurrence(map[string][]Expansion{
		"market":  {{Term: "economy", Weight: 0.6}},
		"america": {{Term: "usa", Weight: 0.3}}, // weaker than the synonym link
	})
	if got := x.Expand("market", 5); !hasTerm(got, "economy") {
		t.Errorf("Expand(market) = %v, want economy from the co-occurrence table", expansionTerms(got))
	}
	// Synonym weight (0.8) wins over the weaker co-occurrence weight.
	got := x.Expand("america", 5)
	for _, e := range got {
		if e.Term == "usa" && e.Weight != synonymWeight {
			t.Errorf("america -> usa weight %v, want synonym weight %v", e.Weight, synonymWeight)
		}
	}
}

// TestNewExpanderAllocs: the gazetteer synonym table is built once per
// process, so an expander costs its own struct and nothing more.
func TestNewExpanderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	NewExpander() // the first call builds the table
	if allocs := testing.AllocsPerRun(20, func() { NewExpander() }); allocs > 1 {
		t.Errorf("NewExpander makes %v allocations, want <= 1", allocs)
	}
}
