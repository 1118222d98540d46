package rdf

import (
	"fmt"
)

// Well-known vocabulary IRIs.
const (
	RDFType           = "rdf:type"
	RDFSSubClassOf    = "rdfs:subClassOf"
	RDFSSubPropertyOf = "rdfs:subPropertyOf"
	RDFSDomain        = "rdfs:domain"
	RDFSRange         = "rdfs:range"
)

// Rule is one user-defined inference rule: when every premise matches (with
// consistent variable bindings), each conclusion is asserted. This is the
// paper's "generic rule reasoner that supports user-defined rules".
type Rule struct {
	Name        string
	Premises    []Statement
	Conclusions []Statement
}

// Validate checks that every conclusion variable is bound by some premise.
func (r Rule) Validate() error {
	for _, c := range r.Conclusions {
		for _, t := range [3]Term{c.S, c.P, c.O} {
			if t.IsVar() && !r.premisesBind(t.Value) {
				return fmt.Errorf("rdf: rule %s: conclusion variable ?%s unbound", r.Name, t.Value)
			}
		}
	}
	return nil
}

// premisesBind reports whether some premise mentions the variable. A scan,
// not a set: rules have a handful of premises and ForwardChain validates
// on every call, so this must not allocate.
func (r Rule) premisesBind(name string) bool {
	for _, p := range r.Premises {
		for _, t := range [3]Term{p.S, p.P, p.O} {
			if t.IsVar() && t.Value == name {
				return true
			}
		}
	}
	return false
}

// ChainStats reports forward-chaining work: Rounds is the number of
// evaluation rounds run, Derived the number of new statements added to
// the graph, and Derivations the number of conclusion instantiations
// produced — Derivations minus Derived is pure re-derivation waste. On
// linear-recursive rule sets semi-naive evaluation produces each fact
// exactly once, so Derivations == Derived; the naive strategy re-derives
// the entire closure every round. Seeded is the size of round one's
// delta: the whole graph on a first call, 0 when nothing changed since
// the last fixpoint, otherwise the statements added since plus the
// removed ones the rules put back (see ForwardChainStats).
type ChainStats struct {
	Rounds      int
	Derived     int
	Derivations int
	Seeded      int
}

// ForwardChain applies the rules to the graph until fixpoint, asserting
// every derivable statement. It returns the number of new statements and
// supports the paper's Figure 5 loop: analysis results enter the store,
// inference generates new facts. maxIterations bounds runaway rule sets
// (0 means 1000).
//
// Evaluation is semi-naive: each round joins rule premises only against
// the delta derived in the previous round (see ForwardChainStats).
func ForwardChain(g *Graph, rules []Rule, maxIterations int) (int, error) {
	stats, err := ForwardChainStats(g, rules, maxIterations)
	return stats.Derived, err
}

// ForwardChainStats is ForwardChain with delta accounting. Each round a
// rule with premises P1..Pk is evaluated once per premise index i, with
// Pi scanning only the previous round's delta, P1..Pi-1 the pre-delta
// graph, and Pi+1..Pk the full graph — every premise combination that
// includes at least one delta fact is enumerated exactly once, and
// combinations entirely inside the older graph (already derived in an
// earlier round) are never revisited. Facts derived in a round become the
// next round's delta. On non-convergence the stats accumulated so far are
// returned alongside the error.
//
// Round one's delta is the whole graph — a naive round — unless the graph
// stands at a fixpoint of this very rule set (compared by value): the
// previous call converged, and Add, AddAll and Remove have recorded every
// change since. Then the delta is the recorded additions still present
// plus every recorded removal that some rule still concludes in one step
// from the facts present; those are put back first, as chaining from
// scratch would re-derive them, and count as Derived. Either way the graph
// ends up exactly where chaining the statements present before the call
// from scratch would leave it.
func ForwardChainStats(g *Graph, rules []Rule, maxIterations int) (ChainStats, error) {
	var stats ChainStats
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return stats, err
		}
	}
	if maxIterations <= 0 {
		maxIterations = 1000
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.fix
	if f == nil {
		f = &fixpoint{}
		g.fix = f
	}
	same := rulesEqual(f.rules, rules)
	standing := f.standing && same
	// Until this call converges the graph is at no known fixpoint: an
	// error return below leaves the next call its whole-graph round.
	f.standing = false
	if !same {
		prog, err := g.compileRules(rules)
		if err != nil {
			return stats, err
		}
		f.rules, f.prog = cloneRules(rules), prog
	}
	prog := f.prog

	var deltaList []triple
	var deltaSet map[triple]struct{}
	if standing {
		deltaList, deltaSet = g.seedFromChanges(f, &stats)
	} else {
		deltaList = make([]triple, 0, len(g.stmts))
		deltaSet = make(map[triple]struct{}, len(g.stmts))
		for t := range g.stmts {
			deltaList = append(deltaList, t)
			deltaSet[t] = struct{}{}
		}
	}
	f.added, f.removed = f.added[:0], f.removed[:0]
	stats.Seeded = len(deltaList)
	for round := 0; round < maxIterations; round++ {
		newList, newSet := prog.round(deltaList, deltaSet, true)
		stats.Rounds++
		stats.Derivations += prog.derivations
		if len(newList) == 0 {
			f.standing = true
			return stats, nil
		}
		for _, t := range newList {
			g.addLocked(t)
		}
		stats.Derived += len(newList)
		deltaList, deltaSet = newList, newSet
	}
	return stats, fmt.Errorf("rdf: forward chaining did not converge in %d iterations", maxIterations)
}

// fixpoint is what a graph remembers between ForwardChain calls so that
// the next one pays for what changed, not for the graph. All of it is
// guarded by Graph.mu.
type fixpoint struct {
	// rules is a private copy of the last rule set that compiled and prog
	// its compiled form, kept across calls whether or not they converged:
	// term IDs are stable for a graph's lifetime.
	rules []Rule
	prog  *chainProgram
	// standing is true while the graph is the fixpoint of rules reached by
	// the last call plus exactly the changes listed in added and removed.
	// It drops — and the next call seeds its first round with the whole
	// graph — when a call fails, when ForwardChainNaive derives facts
	// behind its back, and when the lists outgrow half the graph.
	standing       bool
	added, removed []triple
}

// note records one caller mutation (list is &f.added or &f.removed) made
// on a graph of graphLen statements. Past half the graph a whole-graph
// round is no dearer than seeding from the lists, so recording stops and
// the lists are freed.
func (f *fixpoint) note(list *[]triple, t triple, graphLen int) {
	if !f.standing {
		return
	}
	*list = append(*list, t)
	if len(f.added)+len(f.removed) > graphLen/2 {
		f.forget()
	}
}

// forget gives up the standing fixpoint and frees the change lists; the
// rule set and its compiled form stay.
func (f *fixpoint) forget() {
	f.standing = false
	f.added, f.removed = nil, nil
}

// seedFromChanges builds round one's delta for a graph that stood at a
// fixpoint F of f.rules before the recorded changes. Every one-step
// derivation whose premises all lie in what survives of F concludes a
// member of F, so it is either still present or among the removals — and
// each removal is tested for exactly that, over the full graph, and put
// back if some rule concludes it. With those and the surviving additions
// as the delta the semi-naive invariant holds again: whatever the rest of
// the graph derives on its own is already stored. A removal that only
// becomes derivable through a delta fact is found by the rounds, like any
// other new fact. Caller holds the write lock.
func (g *Graph) seedFromChanges(f *fixpoint, stats *ChainStats) ([]triple, map[triple]struct{}) {
	if len(f.added)+len(f.removed) == 0 {
		return nil, nil
	}
	deltaList := make([]triple, 0, len(f.added))
	deltaSet := make(map[triple]struct{}, len(f.added))
	for _, t := range f.added {
		if _, present := g.stmts[t]; !present {
			continue
		}
		if _, dup := deltaSet[t]; !dup {
			deltaSet[t] = struct{}{}
			deltaList = append(deltaList, t)
		}
	}
	for _, t := range f.removed {
		if _, present := g.stmts[t]; present || !f.prog.concludes(t) {
			continue
		}
		g.addLocked(t)
		stats.Derived++
		stats.Derivations++
		deltaSet[t] = struct{}{}
		deltaList = append(deltaList, t)
	}
	return deltaList, deltaSet
}

// rulesEqual compares two rule sets by value, names included.
func rulesEqual(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			!statementsEqual(a[i].Premises, b[i].Premises) ||
			!statementsEqual(a[i].Conclusions, b[i].Conclusions) {
			return false
		}
	}
	return true
}

func statementsEqual(a, b []Statement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cloneRules copies a rule set deeply enough that the caller editing its
// slices afterwards cannot change what the graph remembers.
func cloneRules(rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		out[i] = Rule{
			Name:        r.Name,
			Premises:    append([]Statement(nil), r.Premises...),
			Conclusions: append([]Statement(nil), r.Conclusions...),
		}
	}
	return out
}

// ForwardChainNaive is the pre-semi-naive evaluation strategy, kept as
// the measured baseline for experiment E17 and TestRDFInferenceShape:
// every round joins every rule against the full graph, re-deriving the
// whole closure so far. It buffers each round's conclusions exactly like
// the semi-naive evaluator, so both strategies add the same fact set in
// every round and differ only in Derivations and work done. On
// non-convergence the stats so far are returned alongside the error.
func ForwardChainNaive(g *Graph, rules []Rule, maxIterations int) (ChainStats, error) {
	var stats ChainStats
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return stats, err
		}
	}
	if maxIterations <= 0 {
		maxIterations = 1000
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	prog, err := g.compileRules(rules)
	if err != nil {
		return stats, err
	}
	if g.fix != nil {
		g.fix.forget() // what this derives is recorded nowhere
	}
	for round := 0; round < maxIterations; round++ {
		newList, _ := prog.round(nil, nil, false)
		stats.Rounds++
		stats.Derivations += prog.derivations
		if len(newList) == 0 {
			return stats, nil
		}
		for _, t := range newList {
			g.addLocked(t)
		}
		stats.Derived += len(newList)
	}
	return stats, fmt.Errorf("rdf: forward chaining did not converge in %d iterations", maxIterations)
}

// crule is a rule compiled to ID form over a shared variable-slot space:
// premises and conclusions reference the same slots, so a premise
// solution row instantiates conclusions without any map lookups.
type crule struct {
	name  string
	prem  []cpat
	concl []cpat
	nvars int
}

// chainProgram is a rule set compiled against one graph together with the
// scratch its evaluation needs, so that a round allocates for the facts it
// derives and nothing per rule: pats and row are sized for the widest
// rule, and exec's emit closure is built once and instantiates the
// conclusions of whichever rule is current.
type chainProgram struct {
	g     *Graph
	rules []crule
	pats  []cpat
	row   []uint32
	plan  joinPlan
	exec  solveExec

	// The round under way: emit instantiates rule's conclusions, counts
	// them in derivations and buffers the new ones in newList/newSet.
	rule        *crule
	derivations int
	newList     []triple
	newSet      map[triple]struct{}
}

// compileRules interns every rule constant (caller holds the write lock).
// Interning rather than looking up matters: a premise constant that no
// stored fact mentions yet may start matching once another rule derives
// it, so its ID must exist up front.
func (g *Graph) compileRules(rules []Rule) (*chainProgram, error) {
	prog := &chainProgram{g: g, rules: make([]crule, len(rules))}
	maxPrem, maxVars := 0, 0
	for i, r := range rules {
		all := make([]Statement, 0, len(r.Premises)+len(r.Conclusions))
		all = append(all, r.Premises...)
		all = append(all, r.Conclusions...)
		pats, vars := g.compileBGP(all, true)
		prog.rules[i] = crule{
			name:  r.Name,
			prem:  pats[:len(r.Premises)],
			concl: pats[len(r.Premises):],
			nvars: len(vars),
		}
		for ci, c := range prog.rules[i].concl {
			for pos := 0; pos < 3; pos++ {
				if c.kind[pos] == cWild {
					return nil, fmt.Errorf("rdf: rule %s produced non-ground %s", r.Name, r.Conclusions[ci])
				}
			}
		}
		maxPrem, maxVars = max(maxPrem, len(r.Premises)), max(maxVars, len(vars))
	}
	prog.pats = make([]cpat, maxPrem)
	prog.row = make([]uint32, maxVars)
	prog.exec = solveExec{g: g, emit: prog.emit}
	return prog, nil
}

// emit instantiates the current rule's conclusions from one premise
// solution, buffering those neither stored nor already derived this round.
func (p *chainProgram) emit(row []uint32) {
	for _, c := range p.rule.concl {
		p.derivations++
		var t triple
		for pos := 0; pos < 3; pos++ {
			if c.kind[pos] == cConst {
				t[pos] = c.id[pos]
			} else {
				t[pos] = row[c.slot[pos]]
			}
		}
		if _, in := p.g.stmts[t]; in {
			continue
		}
		if _, in := p.newSet[t]; in {
			continue
		}
		if p.newSet == nil {
			p.newSet = make(map[triple]struct{})
		}
		p.newSet[t] = struct{}{}
		p.newList = append(p.newList, t)
	}
}

// round evaluates one round of every rule, buffering conclusions instead
// of mutating the graph mid-join. With semiNaive false it runs one naive
// round (all premises over the full graph); otherwise it runs the
// premise-splitting described on ForwardChainStats against the delta. It
// returns the new (deduplicated, not-yet-stored) triples, the set nil
// when there are none, and leaves the round's conclusion count in
// p.derivations. Caller holds the write lock.
func (p *chainProgram) round(deltaList []triple, deltaSet map[triple]struct{}, semiNaive bool) ([]triple, map[triple]struct{}) {
	p.derivations, p.newList, p.newSet = 0, nil, nil
	e := &p.exec
	e.deltaList, e.deltaSet = deltaList, deltaSet
	for ri := range p.rules {
		r := &p.rules[ri]
		p.rule = r
		variants := 1
		if semiNaive && len(r.prem) > 0 {
			variants = len(r.prem)
		}
		pats := p.pats[:len(r.prem)]
		e.pats, e.row = pats, p.row[:r.nvars]
		for v := 0; v < variants; v++ {
			copy(pats, r.prem)
			if semiNaive {
				for j := range pats {
					switch {
					case j < v:
						pats[j].src = srcOld
					case j == v:
						pats[j].src = srcDelta
					default:
						pats[j].src = srcFull
					}
				}
			}
			p.plan.reset(len(pats), r.nvars)
			e.order = p.g.planOrder(&p.plan, pats, len(deltaList))
			e.run()
		}
	}
	e.deltaList, e.deltaSet = nil, nil
	return p.newList, p.newSet
}

// concludes reports whether some rule derives t in one step from the
// facts stored now: a conclusion that unifies with t, and premises that
// have a solution over the full graph with the slots that unification
// bound.
func (p *chainProgram) concludes(t triple) bool {
	e := &p.exec
	for ri := range p.rules {
		r := &p.rules[ri]
		row := p.row[:r.nvars]
		for ci := range r.concl {
			if !unifyConclusion(&r.concl[ci], t, row) {
				continue
			}
			p.plan.reset(len(r.prem), r.nvars)
			for sl, id := range row {
				p.plan.bound[sl] = id != wildID
			}
			e.pats, e.row = r.prem, row
			e.order = p.g.planOrder(&p.plan, r.prem, 0)
			if e.exists() {
				return true
			}
		}
	}
	return false
}

// unifyConclusion matches a ground conclusion pattern against t: it
// clears row and binds the pattern's variable slots to t's IDs, failing
// on a constant that differs or a repeated variable ("?x p ?x") that
// would need two values.
func unifyConclusion(c *cpat, t triple, row []uint32) bool {
	for i := range row {
		row[i] = wildID
	}
	for pos := 0; pos < 3; pos++ {
		if c.kind[pos] == cConst {
			if c.id[pos] != t[pos] {
				return false
			}
			continue
		}
		sl := c.slot[pos]
		if row[sl] != wildID && row[sl] != t[pos] {
			return false
		}
		row[sl] = t[pos]
	}
	return true
}

// BackwardChain proves goal (a pattern, possibly with variables) against
// the graph plus rules, goal-directed with tabling: in-progress goal shapes
// cut cycles, and completed goals' answers are cached and reused. This is
// the paper's "tabled backward chaining" execution strategy.
//
// The tabling is approximate: answers cached for a goal that completed
// under a cycle cut may under-report bindings for adversarially
// mutually-recursive rule sets. For linear-recursive rules (transitivity,
// subsumption, reachability — everything this repository uses) results are
// complete; when in doubt, ForwardChain materializes the exact fixpoint.
func BackwardChain(g *Graph, rules []Rule, goal Statement, maxDepth int) ([]Binding, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if maxDepth <= 0 {
		maxDepth = 32
	}
	p := &prover{
		g:          g,
		rules:      rules,
		maxDepth:   maxDepth,
		inProgress: make(map[string]bool),
		solved:     make(map[string][]Statement),
	}
	return p.prove(goal, Binding{}, 0), nil
}

type prover struct {
	g          *Graph
	rules      []Rule
	maxDepth   int
	inProgress map[string]bool
	// solved tables completed goals: canonical pattern -> the ground
	// statements that satisfy it. Without answer tabling, recursive rules
	// (transitivity) recompute each subgoal's closure at every use and
	// the search is exponential in the derivation depth.
	solved map[string][]Statement
}

// prove returns bindings extending b under which goal holds.
func (p *prover) prove(goal Statement, b Binding, depth int) []Binding {
	if depth > p.maxDepth {
		return nil
	}
	ground := substitute(goal, b)
	// Goals are tabled by shape: variable names are canonicalized to
	// positional placeholders so a renamed copy of a goal (the same
	// pattern at a deeper recursion level) shares its tabling slot.
	key := canonicalGoalKey(ground)
	// Answer table: a completed goal's satisfying statements are reused
	// instead of re-derived.
	if stmts, done := p.solved[key]; done {
		var results []Binding
		for _, s := range stmts {
			if nb := unify(ground, s, b); nb != nil {
				results = append(results, nb)
			}
		}
		return dedupeBindings(results)
	}
	var results []Binding
	var stmts []Statement
	seenStmt := make(map[string]bool)
	record := func(nb Binding) {
		results = append(results, nb)
		s := substitute(ground, nb)
		if s.Ground() && !seenStmt[s.key()] {
			seenStmt[s.key()] = true
			stmts = append(stmts, s)
		}
	}
	// Facts.
	for _, s := range p.g.Match(ground) {
		if nb := unify(ground, s, b); nb != nil {
			record(nb)
		}
	}
	// Rules: cut cycles by refusing to re-enter a goal shape already
	// being proven on this path. Re-entrant results are incomplete, so
	// they are NOT recorded in the answer table.
	if p.inProgress[key] {
		return results
	}
	p.inProgress[key] = true
	defer delete(p.inProgress, key)
	for _, rule := range p.rules {
		renamed := renameRule(rule, depth)
		for _, c := range renamed.Conclusions {
			// Unify the goal with the conclusion in a fresh scope.
			nb := unifyPatterns(ground, c, Binding{})
			if nb == nil {
				continue
			}
			// Prove all premises under the rule-scope binding.
			premiseBindings := p.proveAll(renamed.Premises, nb, depth+1)
			for _, pb := range premiseBindings {
				// Project the rule-scope solution back onto the goal's
				// variables.
				final := b.clone()
				solved := substitute(substitute(c, pb), pb)
				if merged := unify(ground, solved, final); merged != nil {
					record(merged)
				}
			}
		}
	}
	results = dedupeBindings(results)
	// The goal completed at top-of-path: its answers are final for this
	// BackwardChain invocation.
	p.solved[key] = stmts
	return results
}

func (p *prover) proveAll(premises []Statement, b Binding, depth int) []Binding {
	results := []Binding{b}
	for _, prem := range premises {
		var next []Binding
		for _, cur := range results {
			next = append(next, p.prove(prem, cur, depth)...)
		}
		results = next
		if len(results) == 0 {
			return nil
		}
	}
	return results
}

// unifyPatterns unifies two patterns (either may contain variables),
// binding goal variables to conclusion terms and vice versa. Only bindings
// of the second pattern's variables are recorded (rule scope).
func unifyPatterns(goal, concl Statement, b Binding) Binding {
	out := b.clone()
	pairs := [][2]Term{{goal.S, concl.S}, {goal.P, concl.P}, {goal.O, concl.O}}
	for _, pair := range pairs {
		gt, ct := pair[0], pair[1]
		switch {
		case ct.IsVar():
			if cur, ok := out[ct.Value]; ok {
				if !gt.IsVar() && cur != gt {
					return nil
				}
			} else if !gt.IsVar() && !gt.Zero() {
				out[ct.Value] = gt
			}
		case gt.IsVar() || gt.Zero():
			// Goal variable against a ground conclusion term: fine, the
			// final unify after proving will bind it.
		default:
			if gt != ct {
				return nil
			}
		}
	}
	return out
}

// renameRule makes rule variables depth-unique to avoid capture.
func renameRule(r Rule, depth int) Rule {
	suffix := fmt.Sprintf("#%d", depth)
	ren := func(t Term) Term {
		if t.IsVar() {
			return NewVar(t.Value + suffix)
		}
		return t
	}
	out := Rule{Name: r.Name}
	for _, p := range r.Premises {
		out.Premises = append(out.Premises, Statement{S: ren(p.S), P: ren(p.P), O: ren(p.O)})
	}
	for _, c := range r.Conclusions {
		out.Conclusions = append(out.Conclusions, Statement{S: ren(c.S), P: ren(c.P), O: ren(c.O)})
	}
	return out
}

// canonicalGoalKey renders a goal with variable names replaced by
// positional placeholders (first distinct variable -> ?0, second -> ?1,
// ...), so structurally identical goals that differ only in variable
// naming share one tabling slot while repeated-variable patterns such as
// "?x p ?x" stay distinct from "?x p ?y".
func canonicalGoalKey(s Statement) string {
	names := make(map[string]int, 3)
	part := func(t Term) string {
		if t.Zero() {
			return "?_"
		}
		if t.IsVar() {
			id, ok := names[t.Value]
			if !ok {
				id = len(names)
				names[t.Value] = id
			}
			return fmt.Sprintf("?%d", id)
		}
		return t.key()
	}
	return part(s.S) + "\x01" + part(s.P) + "\x01" + part(s.O)
}

func dedupeBindings(bs []Binding) []Binding {
	seen := make(map[string]bool, len(bs))
	var out []Binding
	for _, b := range bs {
		key := bindingKey(b)
		if !seen[key] {
			seen[key] = true
			out = append(out, b)
		}
	}
	return out
}

func bindingKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	// Insertion-order independence.
	sortStrings(keys)
	var sb []byte
	for _, k := range keys {
		sb = append(sb, k...)
		sb = append(sb, 0)
		sb = append(sb, b[k].key()...)
		sb = append(sb, 1)
	}
	return string(sb)
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TransitiveRules returns the transitive reasoner's rule set for class and
// property lattices (paper: "a transitive reasoner with support for storing
// and traversing class and property lattices").
func TransitiveRules() []Rule {
	return []Rule{
		{
			Name: "subclass-transitive",
			Premises: []Statement{
				{S: NewVar("a"), P: NewIRI(RDFSSubClassOf), O: NewVar("b")},
				{S: NewVar("b"), P: NewIRI(RDFSSubClassOf), O: NewVar("c")},
			},
			Conclusions: []Statement{
				{S: NewVar("a"), P: NewIRI(RDFSSubClassOf), O: NewVar("c")},
			},
		},
		{
			Name: "subproperty-transitive",
			Premises: []Statement{
				{S: NewVar("a"), P: NewIRI(RDFSSubPropertyOf), O: NewVar("b")},
				{S: NewVar("b"), P: NewIRI(RDFSSubPropertyOf), O: NewVar("c")},
			},
			Conclusions: []Statement{
				{S: NewVar("a"), P: NewIRI(RDFSSubPropertyOf), O: NewVar("c")},
			},
		},
	}
}

// RDFSRules returns the RDF-Schema entailment subset the paper's "RDF
// Schema rule reasoner" implements: rdfs2 (domain), rdfs3 (range), rdfs5
// (subPropertyOf transitivity), rdfs7 (property inheritance), rdfs9 (class
// membership inheritance), rdfs11 (subClassOf transitivity).
func RDFSRules() []Rule {
	v := NewVar
	iri := NewIRI
	return []Rule{
		{
			Name: "rdfs2-domain",
			Premises: []Statement{
				{S: v("p"), P: iri(RDFSDomain), O: v("c")},
				{S: v("x"), P: v("p"), O: v("y")},
			},
			Conclusions: []Statement{{S: v("x"), P: iri(RDFType), O: v("c")}},
		},
		{
			Name: "rdfs3-range",
			Premises: []Statement{
				{S: v("p"), P: iri(RDFSRange), O: v("c")},
				{S: v("x"), P: v("p"), O: v("y")},
			},
			Conclusions: []Statement{{S: v("y"), P: iri(RDFType), O: v("c")}},
		},
		{
			Name: "rdfs5-subproperty-transitive",
			Premises: []Statement{
				{S: v("p"), P: iri(RDFSSubPropertyOf), O: v("q")},
				{S: v("q"), P: iri(RDFSSubPropertyOf), O: v("r")},
			},
			Conclusions: []Statement{{S: v("p"), P: iri(RDFSSubPropertyOf), O: v("r")}},
		},
		{
			Name: "rdfs7-subproperty-inheritance",
			Premises: []Statement{
				{S: v("p"), P: iri(RDFSSubPropertyOf), O: v("q")},
				{S: v("x"), P: v("p"), O: v("y")},
			},
			Conclusions: []Statement{{S: v("x"), P: v("q"), O: v("y")}},
		},
		{
			Name: "rdfs9-subclass-membership",
			Premises: []Statement{
				{S: v("c"), P: iri(RDFSSubClassOf), O: v("d")},
				{S: v("x"), P: iri(RDFType), O: v("c")},
			},
			Conclusions: []Statement{{S: v("x"), P: iri(RDFType), O: v("d")}},
		},
		{
			Name: "rdfs11-subclass-transitive",
			Premises: []Statement{
				{S: v("c"), P: iri(RDFSSubClassOf), O: v("d")},
				{S: v("d"), P: iri(RDFSSubClassOf), O: v("e")},
			},
			Conclusions: []Statement{{S: v("c"), P: iri(RDFSSubClassOf), O: v("e")}},
		},
	}
}
