// Package rdf implements the RDF triple-store substrate of the
// personalized knowledge base — the role Apache Jena plays in the paper. A
// statement has a subject, predicate, and object (paper §3); the store
// indexes statements by each position, answers pattern queries with
// variables, runs a SPARQL-like basic-graph-pattern query language, and
// provides the reasoners the paper lists: a transitive reasoner for class
// and property lattices, an RDF-Schema rule reasoner, and a generic rule
// reasoner supporting user-defined rules with forward chaining and
// backward chaining.
//
// Internally the store interns every term to a uint32 through a term
// dictionary and keeps statements as [3]uint32 ID triples in three
// composite positional indexes (SPO, POS, OSP), so pattern matching,
// joins, and inference run over integer IDs; term bytes are only touched
// at the public API boundary. See DESIGN.md "RDF store internals".
package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/intern"
)

// TermKind classifies RDF terms.
type TermKind int

// Term kinds. Var terms appear only in query/rule patterns, never in
// stored statements.
const (
	IRI TermKind = iota + 1
	Literal
	blankKind
	varKind
)

// Term is one RDF term.
type Term struct {
	Kind  TermKind
	Value string
}

// Convenience constructors.
func NewIRI(v string) Term     { return Term{Kind: IRI, Value: v} }
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }
func NewBlank(v string) Term   { return Term{Kind: blankKind, Value: v} }
func NewVar(v string) Term     { return Term{Kind: varKind, Value: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == varKind }

// Zero reports whether the term is the zero Term (wildcard in Match).
func (t Term) Zero() bool { return t.Kind == 0 && t.Value == "" }

// String renders the term in a Turtle-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Literal:
		return fmt.Sprintf("%q", t.Value)
	case blankKind:
		return "_:" + t.Value
	case varKind:
		return "?" + t.Value
	default:
		return "_"
	}
}

// key is a kind-tagged map key for external per-statement bookkeeping
// (Confidences, the prover's tables). The store itself no longer keys
// anything by strings — statements live as interned ID triples.
func (t Term) key() string {
	return string([]byte{byte('0' + t.Kind)}) + "\x00" + t.Value
}

// Statement is one RDF triple. The paper's example: in "The Java HashMap
// class implements the Java Map interface", the subject is "Java HashMap
// class", the predicate "implements", and the object "Java Map interface".
type Statement struct {
	S, P, O Term
}

// String renders the statement Turtle-style.
func (s Statement) String() string {
	return fmt.Sprintf("%s %s %s .", s.S, s.P, s.O)
}

func (s Statement) key() string {
	return s.S.key() + "\x01" + s.P.key() + "\x01" + s.O.key()
}

// Ground reports whether the statement contains no variables or zero terms.
func (s Statement) Ground() bool {
	for _, t := range []Term{s.S, s.P, s.O} {
		if t.IsVar() || t.Zero() {
			return false
		}
	}
	return true
}

// triple is a statement in interned form: dictionary IDs for S, P, O.
type triple = [3]uint32

// Graph is an indexed triple store, safe for concurrent use.
//
// Statements are interned ID triples. The three composite indexes each
// cover one rotation of the triple — spo (s→p→objects), pos (p→o→
// subjects), osp (o→s→predicates) — so every one- and two-bound pattern
// shape binds directly to a posting list with no residual filter scan,
// and the per-position count maps give the join planner exact
// cardinalities for bound constants.
type Graph struct {
	mu    sync.RWMutex
	dict  *intern.Dict[Term]
	stmts map[triple]struct{}
	spo   map[uint32]map[uint32][]uint32
	pos   map[uint32]map[uint32][]uint32
	osp   map[uint32]map[uint32][]uint32
	// Per-term statement counts by position, for selectivity estimates.
	nS, nP, nO map[uint32]int
	// obs holds the graph's instruments (nil until Instrument attaches
	// them); guarded by mu like everything else here.
	obs *rdfObs
	// fix is what forward chaining remembers between calls (nil until the
	// first ForwardChain); see fixpoint in reason.go.
	fix *fixpoint
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		dict:  intern.NewDict[Term](),
		stmts: make(map[triple]struct{}),
		spo:   make(map[uint32]map[uint32][]uint32),
		pos:   make(map[uint32]map[uint32][]uint32),
		osp:   make(map[uint32]map[uint32][]uint32),
		nS:    make(map[uint32]int),
		nP:    make(map[uint32]int),
		nO:    make(map[uint32]int),
	}
}

// Add inserts a ground statement. It reports whether the statement was new
// and errors on non-ground statements.
func (g *Graph) Add(s Statement) (bool, error) {
	if !s.Ground() {
		return false, fmt.Errorf("rdf: cannot store non-ground statement %s", s)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.assertLocked(s), nil
}

// assertLocked interns and inserts a caller's statement and tells the
// standing fixpoint, if there is one, about it; caller holds the write
// lock.
func (g *Graph) assertLocked(s Statement) bool {
	t := triple{g.dict.Intern(s.S), g.dict.Intern(s.P), g.dict.Intern(s.O)}
	if !g.addLocked(t) {
		return false
	}
	if f := g.fix; f != nil {
		f.note(&f.added, t, len(g.stmts))
	}
	return true
}

// addLocked inserts an interned triple without recording it — the insert
// forward chaining itself uses; caller holds the write lock.
func (g *Graph) addLocked(t triple) bool {
	if _, dup := g.stmts[t]; dup {
		return false
	}
	g.stmts[t] = struct{}{}
	postingAdd(g.spo, t[0], t[1], t[2])
	postingAdd(g.pos, t[1], t[2], t[0])
	postingAdd(g.osp, t[2], t[0], t[1])
	g.nS[t[0]]++
	g.nP[t[1]]++
	g.nO[t[2]]++
	return true
}

// MustAdd is Add that panics on error, for literal test/setup data.
func (g *Graph) MustAdd(s Statement) {
	if _, err := g.Add(s); err != nil {
		panic(err)
	}
}

// AddAll inserts many statements under one lock, returning how many were
// new.
func (g *Graph) AddAll(stmts []Statement) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	added := 0
	for _, s := range stmts {
		if !s.Ground() {
			return added, fmt.Errorf("rdf: cannot store non-ground statement %s", s)
		}
		if g.assertLocked(s) {
			added++
		}
	}
	return added, nil
}

// Remove deletes a statement, reporting whether it was present. Dictionary
// entries are kept: term IDs stay valid for the graph's lifetime.
func (g *Graph) Remove(s Statement) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.lookupTriple(s)
	if !ok {
		return false
	}
	if _, ok := g.stmts[t]; !ok {
		return false
	}
	delete(g.stmts, t)
	postingDel(g.spo, t[0], t[1], t[2])
	postingDel(g.pos, t[1], t[2], t[0])
	postingDel(g.osp, t[2], t[0], t[1])
	countDec(g.nS, t[0])
	countDec(g.nP, t[1])
	countDec(g.nO, t[2])
	if f := g.fix; f != nil {
		f.note(&f.removed, t, len(g.stmts))
	}
	return true
}

// Has reports whether the ground statement is stored.
func (g *Graph) Has(s Statement) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.lookupTriple(s)
	if !ok {
		return false
	}
	_, ok = g.stmts[t]
	return ok
}

// Len returns the number of stored statements.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.stmts)
}

// All returns every statement, sorted for determinism.
func (g *Graph) All() []Statement {
	g.mu.RLock()
	out := make([]Statement, 0, len(g.stmts))
	for t := range g.stmts {
		out = append(out, g.statement(t))
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return compareStatement(out[i], out[j]) < 0 })
	return out
}

// Match returns all statements matching the pattern, where variable or
// zero terms match anything, sorted for determinism. The matching itself
// is a direct index walk over interned IDs; only the result materializes
// terms.
func (g *Graph) Match(pattern Statement) []Statement {
	g.mu.RLock()
	var out []Statement
	if want, ok := g.compileMatch(pattern); ok {
		g.forEach(want, func(t triple) {
			out = append(out, g.statement(t))
		})
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return compareStatement(out[i], out[j]) < 0 })
	return out
}

// lookupTriple interns nothing: a miss on any position means the
// statement cannot be stored. Caller holds a lock.
func (g *Graph) lookupTriple(s Statement) (triple, bool) {
	si, ok := g.dict.Lookup(s.S)
	if !ok {
		return triple{}, false
	}
	pi, ok := g.dict.Lookup(s.P)
	if !ok {
		return triple{}, false
	}
	oi, ok := g.dict.Lookup(s.O)
	if !ok {
		return triple{}, false
	}
	return triple{si, pi, oi}, true
}

// compileMatch translates a pattern to an ID pattern (wildID per unbound
// position). ok is false when a bound term is absent from the dictionary,
// i.e. the pattern cannot match anything. Caller holds a lock.
func (g *Graph) compileMatch(pattern Statement) (triple, bool) {
	want := triple{wildID, wildID, wildID}
	for i, t := range [3]Term{pattern.S, pattern.P, pattern.O} {
		if !bound(t) {
			continue
		}
		id, ok := g.dict.Lookup(t)
		if !ok {
			return want, false
		}
		want[i] = id
	}
	return want, true
}

// statement materializes an interned triple. Caller holds a lock.
func (g *Graph) statement(t triple) Statement {
	return Statement{S: g.dict.Value(t[0]), P: g.dict.Value(t[1]), O: g.dict.Value(t[2])}
}

// forEach calls fn for every stored triple matching the ID pattern
// (wildID positions match anything). Each bound-position combination
// binds to exactly one index rotation, so there is never a residual
// filter and never a per-call candidate set; the all-wildcard case walks
// the statement map directly. Caller holds at least a read lock; fn must
// not mutate the graph.
func (g *Graph) forEach(want triple, fn func(triple)) {
	s, p, o := want[0], want[1], want[2]
	switch {
	case s != wildID && p != wildID && o != wildID:
		if _, ok := g.stmts[want]; ok {
			fn(want)
		}
	case s != wildID && p != wildID:
		for _, oo := range g.spo[s][p] {
			fn(triple{s, p, oo})
		}
	case p != wildID && o != wildID:
		for _, ss := range g.pos[p][o] {
			fn(triple{ss, p, o})
		}
	case s != wildID && o != wildID:
		for _, pp := range g.osp[o][s] {
			fn(triple{s, pp, o})
		}
	case s != wildID:
		for pp, list := range g.spo[s] {
			for _, oo := range list {
				fn(triple{s, pp, oo})
			}
		}
	case p != wildID:
		for oo, list := range g.pos[p] {
			for _, ss := range list {
				fn(triple{ss, p, oo})
			}
		}
	case o != wildID:
		for ss, list := range g.osp[o] {
			for _, pp := range list {
				fn(triple{ss, pp, o})
			}
		}
	default:
		for t := range g.stmts {
			fn(t)
		}
	}
}

func bound(t Term) bool { return !t.IsVar() && !t.Zero() }

// postingAdd appends c to the a→b posting list.
func postingAdd(idx map[uint32]map[uint32][]uint32, a, b, c uint32) {
	inner := idx[a]
	if inner == nil {
		inner = make(map[uint32][]uint32)
		idx[a] = inner
	}
	inner[b] = append(inner[b], c)
}

// postingDel swap-removes c from the a→b posting list, pruning emptied
// levels. Posting lists are unordered; public results sort on the way out.
func postingDel(idx map[uint32]map[uint32][]uint32, a, b, c uint32) {
	inner := idx[a]
	list := inner[b]
	for i, v := range list {
		if v == c {
			last := len(list) - 1
			list[i] = list[last]
			list = list[:last]
			break
		}
	}
	if len(list) == 0 {
		delete(inner, b)
		if len(inner) == 0 {
			delete(idx, a)
		}
	} else {
		inner[b] = list
	}
}

func countDec(counts map[uint32]int, id uint32) {
	if counts[id] <= 1 {
		delete(counts, id)
	} else {
		counts[id]--
	}
}

// parseTerm parses a Turtle-like term: <iri>, "literal", _:blank, ?var, or
// a bare word (treated as an IRI).
func parseTerm(s string) (Term, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Term{}, fmt.Errorf("rdf: empty term")
	case strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">"):
		return NewIRI(s[1 : len(s)-1]), nil
	case strings.HasPrefix(s, "\"") && strings.HasSuffix(s, "\"") && len(s) >= 2:
		return NewLiteral(s[1 : len(s)-1]), nil
	case strings.HasPrefix(s, "_:"):
		return NewBlank(s[2:]), nil
	case strings.HasPrefix(s, "?"):
		return NewVar(s[1:]), nil
	default:
		return NewIRI(s), nil
	}
}
