package rdf_test

// Differential oracle for the standing fixpoint: one long-lived graph
// lives through a history of Add / AddAll / Remove / ForwardChain calls,
// and before every chain the frozen reference engine is rebuilt from the
// statements present at that moment and chained from scratch. Whatever
// round one was seeded with, the graph must end up equal to the reference
// and the call must report the number of statements it added. A history
// is a byte string, so the seeded test and FuzzChainHistory share one
// interpreter.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rdf/rdfref"
)

var (
	histNodes   = []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	histClasses = []string{"c0", "c1", "c2", "c3"}
	histProps   = []string{"p0", "p1", "p2"}
	histRuns    = []string{"run0", "run1", "run2", "run3"}
)

// histRuleSets are the rule sets a history swaps between: the RDFS and the
// (cyclic, once a class lattice loops) transitive reasoners, their union
// with a two-premise join and a premise-free rule, and linear
// reachability with the same two extras.
func histRuleSets() [][]rdf.Rule {
	v, iri := rdf.NewVar, rdf.NewIRI
	join := rdf.Rule{
		Name: "run-promotes",
		Premises: []rdf.Statement{
			{S: v("r"), P: iri("mentions"), O: v("e")},
			{S: v("e"), P: iri("outlook"), O: rdf.NewLiteral("promote")},
		},
		Conclusions: []rdf.Statement{{S: v("r"), P: iri("promotes"), O: v("e")}},
	}
	axiom := rdf.Rule{
		Name:        "schema-loaded",
		Conclusions: []rdf.Statement{{S: iri("schema"), P: iri(rdf.RDFType), O: iri("c0")}},
	}
	all := append(append([]rdf.Rule{}, rdf.TransitiveRules()...), rdf.RDFSRules()...)
	return [][]rdf.Rule{
		rdf.RDFSRules(),
		rdf.TransitiveRules(),
		append(all, join, axiom),
		append(reachRules(), join, axiom),
	}
}

// histBytes hands out a history's bytes one at a time; past the end it
// keeps answering 0, so a truncated history still decodes.
type histBytes struct {
	data []byte
	pos  int
}

func (h *histBytes) next() int {
	if h.pos >= len(h.data) {
		return 0
	}
	b := h.data[h.pos]
	h.pos++
	return int(b)
}

func (h *histBytes) done() bool { return h.pos >= len(h.data) }

func (h *histBytes) pick(pool []string) rdf.Term { return rdf.NewIRI(pool[h.next()%len(pool)]) }

// statement decodes one statement over the small colliding vocabulary, in
// the shapes the reasoners join on.
func (h *histBytes) statement() rdf.Statement {
	iri := rdf.NewIRI
	switch h.next() % 9 {
	case 0:
		return rdf.Statement{S: h.pick(histClasses), P: iri(rdf.RDFSSubClassOf), O: h.pick(histClasses)}
	case 1:
		return rdf.Statement{S: h.pick(histProps), P: iri(rdf.RDFSDomain), O: h.pick(histClasses)}
	case 2:
		return rdf.Statement{S: h.pick(histProps), P: iri(rdf.RDFSRange), O: h.pick(histClasses)}
	case 3:
		return rdf.Statement{S: h.pick(histProps), P: iri(rdf.RDFSSubPropertyOf), O: h.pick(histProps)}
	case 4:
		return rdf.Statement{S: h.pick(histNodes), P: h.pick(histProps), O: h.pick(histNodes)}
	case 5:
		return rdf.Statement{S: h.pick(histNodes), P: iri(rdf.RDFType), O: h.pick(histClasses)}
	case 6:
		return rdf.Statement{S: h.pick(histNodes), P: iri("edge"), O: h.pick(histNodes)}
	case 7:
		return rdf.Statement{S: h.pick(histRuns), P: iri("mentions"), O: h.pick(histNodes)}
	default:
		return rdf.Statement{S: h.pick(histNodes), P: iri("outlook"), O: rdf.NewLiteral("promote")}
	}
}

// histCoverage counts what a history exercised, so the seeded test can
// insist that its histories reach every path it claims to cover.
type histCoverage struct {
	chains      int // converged ForwardChain calls compared with the reference
	incremental int // of those, seeded from recorded changes
	afterSwap   int // whole-graph rounds forced by a rule-set change
	afterFailed int // whole-graph rounds forced by a failed (round-capped) call
	afterBulk   int // whole-graph rounds forced by changes past half the graph
	cameBack    int // removed statements a chain restored
	retired     int // whole-subject removals that removed something
}

func (c *histCoverage) add(o histCoverage) {
	c.chains += o.chains
	c.incremental += o.incremental
	c.afterSwap += o.afterSwap
	c.afterFailed += o.afterFailed
	c.afterBulk += o.afterBulk
	c.cameBack += o.cameBack
	c.retired += o.retired
}

// histMaxOps bounds one history: the reference engine's from-scratch
// chain before every ForwardChain is what a long history pays for.
const histMaxOps = 160

func statementSet(stmts []rdf.Statement) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// runChainHistory interprets data as a history on one graph and checks
// every chain against the reference.
func runChainHistory(t testing.TB, data []byte) histCoverage {
	t.Helper()
	var cov histCoverage
	h := &histBytes{data: data}
	g := rdf.NewGraph()
	ruleSets := histRuleSets()
	cur := 0

	// The test's own account of what the graph should remember: which
	// rule set it stands at a fixpoint of (-1: none, and why), how many
	// changes it has seen since, and whether they outgrew half the graph.
	standing, lost := -1, "first"
	pending, bulk := 0, false
	removed := map[rdf.Statement]bool{}
	converged := func() {
		standing, pending, bulk = cur, 0, false
		removed = map[rdf.Statement]bool{}
	}
	changed := func(n int) {
		pending += n
		if pending > g.Len()/2 {
			bulk = true
		}
	}
	remove := func(s rdf.Statement) bool {
		if !g.Remove(s) {
			return false
		}
		removed[s] = true
		changed(1)
		return true
	}

	for op := 0; op < histMaxOps && !h.done(); op++ {
		switch code := h.next() % 16; {
		case code < 6:
			added, err := g.Add(h.statement())
			if err != nil {
				t.Fatalf("op %d: Add: %v", op, err)
			}
			if added {
				changed(1)
			}
		case code == 6:
			batch := make([]rdf.Statement, 1+h.next()%4)
			for i := range batch {
				batch[i] = h.statement()
			}
			n, err := g.AddAll(batch)
			if err != nil {
				t.Fatalf("op %d: AddAll: %v", op, err)
			}
			changed(n)
		case code == 7:
			remove(h.statement())
		case code == 8 || code == 9:
			// Any stored statement, derived ones included: one whose
			// premises survive must come back at the next chain.
			if all := g.All(); len(all) > 0 {
				remove(all[(h.next()<<8|h.next())%len(all)])
			}
		case code == 10:
			// The benchmark's retire pattern: everything under one subject.
			subject := h.pick(append(append([]string{}, histRuns...), histNodes...))
			n := 0
			for _, s := range g.Match(rdf.Statement{S: subject}) {
				if remove(s) {
					n++
				}
			}
			if n > 0 {
				cov.retired++
			}
		case code == 14:
			cur = h.next() % len(ruleSets)
		case code == 15:
			// One round only. Whether that is enough depends on how the
			// round was seeded, so the result is not compared — but a call
			// that fails must cost the next one its whole-graph round.
			if _, err := rdf.ForwardChain(g, ruleSets[cur], 1); err != nil {
				standing, lost = -1, "failed"
			} else {
				converged()
			}
		default:
			full := ""
			switch {
			case standing < 0:
				full = lost
			case standing != cur:
				full = "swap"
			case bulk:
				full = "bulk"
			}
			rules := ruleSets[cur]
			before := g.All()
			ref := rdfref.New()
			for _, s := range before {
				ref.MustAdd(s)
			}
			want, rerr := rdfref.ForwardChain(ref, rules, 0)
			stats, gerr := rdf.ForwardChainStats(g, rules, 0)
			if rerr != nil || gerr != nil {
				t.Fatalf("op %d: chain errors: %v / reference %v", op, gerr, rerr)
			}
			if stats.Derived != want {
				t.Fatalf("op %d (%s round): chain added %d statements, from scratch the reference adds %d", op, full, stats.Derived, want)
			}
			got, exp := statementSet(g.All()), statementSet(ref.All())
			if len(got) != len(exp) {
				t.Fatalf("op %d (%s round): %d statements after chaining, reference has %d", op, full, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("op %d (%s round): statement %d is %s, reference has %s", op, full, i, got[i], exp[i])
				}
			}
			switch {
			case full != "" && stats.Seeded != len(before):
				t.Fatalf("op %d: round one seeded with %d of %d statements, want the whole graph (%s)", op, stats.Seeded, len(before), full)
			case full == "" && stats.Seeded > pending:
				t.Fatalf("op %d: round one seeded with %d statements after %d changes", op, stats.Seeded, pending)
			}
			cov.chains++
			switch full {
			case "":
				cov.incremental++
			case "swap":
				cov.afterSwap++
			case "failed":
				cov.afterFailed++
			case "bulk":
				cov.afterBulk++
			}
			for s := range removed {
				if g.Has(s) {
					cov.cameBack++
				}
			}
			converged()
		}
	}
	return cov
}

func TestChainHistoryOracle(t *testing.T) {
	var total histCoverage
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*histMaxOps)
		rng.Read(data)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			total.add(runChainHistory(t, data))
		})
	}
	t.Logf("coverage over 60 histories: %+v", total)
	for name, n := range map[string]int{
		"whole-graph rounds after a rule swap":   total.afterSwap,
		"whole-graph rounds after a failed call": total.afterFailed,
		"whole-graph rounds after bulk changes":  total.afterBulk,
		"removed statements a chain restored":    total.cameBack,
		"whole-subject retirements":              total.retired,
	} {
		if n == 0 {
			t.Errorf("the histories never exercised: %s", name)
		}
	}
	if total.incremental < 100 {
		t.Errorf("only %d of %d chains were seeded from recorded changes, want at least 100", total.incremental, total.chains)
	}
}

// FuzzChainHistory decodes arbitrary bytes into a history (go test
// -fuzz=FuzzChainHistory ./internal/rdf). The committed corpus under
// testdata/fuzz replays on every plain go test.
func FuzzChainHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 2, 11, 8, 0, 2, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		runChainHistory(t, data)
	})
}
