package rdf

// The basic-graph-pattern solver. Patterns compile to ID form (cpat), a
// greedy selectivity planner picks the join order from index statistics,
// and a depth-first executor joins entirely over uint32 IDs in a single
// reusable row — no candidate maps, no string keys, no sorting, no
// Binding maps until (and unless) the caller asks for them. The same
// executor powers Solve/Query and, with per-premise fact sources, the
// semi-naive forward chainer in reason.go.

import (
	"sort"
)

// Position roles inside a compiled pattern.
const (
	cConst uint8 = iota // interned constant term
	cVar                // variable, bound through a row slot
	cWild               // zero term: matches anything, binds nothing
)

// premSrc selects which fact set a compiled pattern scans. Plain solving
// always scans the full graph; the semi-naive chainer splits premises
// across delta/old/full (see forwardChainLocked).
type premSrc uint8

const (
	srcFull  premSrc = iota // every stored statement
	srcOld                  // stored statements minus the current delta
	srcDelta                // only the previous round's new statements
)

// cpat is one compiled pattern: per position either an interned constant
// ID, a variable slot, or a wildcard.
type cpat struct {
	kind [3]uint8
	id   [3]uint32
	slot [3]int
	src  premSrc
	// dead marks a pattern whose constant term is absent from the
	// dictionary: it can never match, so the whole BGP is empty.
	dead bool
}

// compileBGP translates patterns into cpats over a shared variable-slot
// space, returning variable names in first-appearance order. When intern
// is true missing constants are added to the dictionary (rule compilation,
// under the write lock: a premise constant may only start matching once
// another rule derives it); otherwise a missing constant marks the
// pattern dead. Caller holds the appropriate lock.
func (g *Graph) compileBGP(patterns []Statement, intern bool) ([]cpat, []string) {
	var vars []string
	slots := make(map[string]int)
	pats := make([]cpat, len(patterns))
	for pi, p := range patterns {
		cp := &pats[pi]
		for i, t := range [3]Term{p.S, p.P, p.O} {
			switch {
			case t.IsVar():
				cp.kind[i] = cVar
				sl, ok := slots[t.Value]
				if !ok {
					sl = len(vars)
					slots[t.Value] = sl
					vars = append(vars, t.Value)
				}
				cp.slot[i] = sl
			case t.Zero():
				cp.kind[i] = cWild
			default:
				cp.kind[i] = cConst
				if intern {
					cp.id[i] = g.dict.Intern(t)
				} else if id, ok := g.dict.Lookup(t); ok {
					cp.id[i] = id
				} else {
					cp.dead = true
				}
			}
		}
	}
	return pats, vars
}

// joinPlan holds planOrder's working slices, so a caller that plans many
// joins (the forward chainer) allocates them once.
type joinPlan struct {
	order []int
	used  []bool
	// bound marks the variable slots already bound. reset clears it; a
	// caller joining from a partly bound row marks those slots before
	// planning.
	bound []bool
}

// reset sizes the plan for npats patterns over nvars variable slots,
// reusing the slices when they are large enough.
func (p *joinPlan) reset(npats, nvars int) {
	if cap(p.used) < npats {
		p.order = make([]int, 0, npats)
		p.used = make([]bool, npats)
	}
	if cap(p.bound) < nvars {
		p.bound = make([]bool, nvars)
	}
	p.order, p.used, p.bound = p.order[:0], p.used[:npats], p.bound[:nvars]
	clear(p.used)
	clear(p.bound)
}

// planOrder greedily orders patterns by estimated result cardinality:
// repeatedly pick the cheapest un-placed pattern given the variables
// already bound, then mark its variables bound. Delta-source premises are
// always placed first — the delta is the smallest relation by
// construction, and scanning it in an inner loop would cost |delta| per
// outer row. plan must have been reset for pats; the returned order is
// plan.order. Caller holds a lock.
func (g *Graph) planOrder(plan *joinPlan, pats []cpat, deltaLen int) []int {
	for len(plan.order) < len(pats) {
		best, bestEst, bestDelta := -1, 0.0, false
		for i := range pats {
			if plan.used[i] {
				continue
			}
			est := g.estimate(&pats[i], plan.bound)
			isDelta := pats[i].src == srcDelta
			if isDelta && float64(deltaLen) < est {
				est = float64(deltaLen)
			}
			if best < 0 || (isDelta && !bestDelta) || (isDelta == bestDelta && est < bestEst) {
				best, bestEst, bestDelta = i, est, isDelta
			}
		}
		plan.used[best] = true
		plan.order = append(plan.order, best)
		for i := 0; i < 3; i++ {
			if pats[best].kind[i] == cVar {
				plan.bound[pats[best].slot[i]] = true
			}
		}
	}
	return plan.order
}

// estimate predicts how many statements the pattern will scan given the
// already-bound variable set. Constant positions give exact counts from
// the indexes; each bound-variable position scales by the expected
// selectivity of an equality on that position (one over the number of
// distinct terms there). Caller holds a lock.
func (g *Graph) estimate(p *cpat, boundSlots []bool) float64 {
	if p.dead {
		return 0
	}
	want := triple{wildID, wildID, wildID}
	for i := 0; i < 3; i++ {
		if p.kind[i] == cConst {
			want[i] = p.id[i]
		}
	}
	s, pp, o := want[0], want[1], want[2]
	var est float64
	switch {
	case s != wildID && pp != wildID && o != wildID:
		est = 1
	case s != wildID && pp != wildID:
		est = float64(len(g.spo[s][pp]))
	case pp != wildID && o != wildID:
		est = float64(len(g.pos[pp][o]))
	case s != wildID && o != wildID:
		est = float64(len(g.osp[o][s]))
	case s != wildID:
		est = float64(g.nS[s])
	case pp != wildID:
		est = float64(g.nP[pp])
	case o != wildID:
		est = float64(g.nO[o])
	default:
		est = float64(len(g.stmts))
	}
	for i := 0; i < 3; i++ {
		if p.kind[i] != cVar || !boundSlots[p.slot[i]] {
			continue
		}
		var distinct int
		switch i {
		case 0:
			distinct = len(g.spo)
		case 1:
			distinct = len(g.pos)
		case 2:
			distinct = len(g.osp)
		}
		if distinct > 1 {
			est /= float64(distinct)
		}
	}
	return est
}

// solveExec runs one compiled BGP depth-first in planned order. row holds
// the current variable assignment (wildID = unbound) and is reused across
// the whole search; emit receives it for each complete solution and must
// copy what it keeps.
type solveExec struct {
	g         *Graph
	pats      []cpat
	order     []int
	row       []uint32
	deltaList []triple
	deltaSet  map[triple]struct{}
	emit      func(row []uint32)
	// first makes the search an existence test (see exists): the first
	// complete solution sets found instead of reaching emit, and every
	// scan still under way returns without visiting anything more.
	first, found bool
}

func (e *solveExec) run() {
	for i := range e.pats {
		if e.pats[i].dead {
			return
		}
	}
	for i := range e.row {
		e.row[i] = wildID
	}
	e.step(0)
}

// exists searches from the row as the caller left it — slots already
// holding an ID stay bound to it, and order must have been planned with
// them marked bound — and reports whether the patterns have a solution,
// stopping at the first. The row comes back as it was. Patterns compiled
// with interning (rules) are never dead, so there is no dead check here.
func (e *solveExec) exists() bool {
	e.first = true
	e.step(0)
	found := e.found
	e.first, e.found = false, false
	return found
}

func (e *solveExec) step(k int) {
	if k == len(e.order) {
		if e.first {
			e.found = true
		} else {
			e.emit(e.row)
		}
		return
	}
	p := &e.pats[e.order[k]]
	var want triple
	for i := 0; i < 3; i++ {
		switch p.kind[i] {
		case cConst:
			want[i] = p.id[i]
		case cVar:
			want[i] = e.row[p.slot[i]]
		default:
			want[i] = wildID
		}
	}
	visit := func(t triple) {
		if e.found {
			return
		}
		// Bind this pattern's unbound variable slots; a slot bound twice
		// within the pattern (e.g. "?x p ?x") must agree with itself.
		var boundHere [3]int
		nb := 0
		ok := true
		for i := 0; i < 3; i++ {
			if p.kind[i] != cVar {
				continue
			}
			sl := p.slot[i]
			if e.row[sl] == wildID {
				e.row[sl] = t[i]
				boundHere[nb] = sl
				nb++
			} else if e.row[sl] != t[i] {
				ok = false
				break
			}
		}
		if ok {
			e.step(k + 1)
		}
		for i := 0; i < nb; i++ {
			e.row[boundHere[i]] = wildID
		}
	}
	switch p.src {
	case srcDelta:
		for _, t := range e.deltaList {
			if tripleMatches(want, t) {
				visit(t)
			}
		}
	case srcOld:
		e.g.forEach(want, func(t triple) {
			if _, in := e.deltaSet[t]; !in {
				visit(t)
			}
		})
	default:
		e.g.forEach(want, visit)
	}
}

func tripleMatches(want, t triple) bool {
	return (want[0] == wildID || want[0] == t[0]) &&
		(want[1] == wildID || want[1] == t[1]) &&
		(want[2] == wildID || want[2] == t[2])
}

// solutions is the compact tabular result of solveRows: Vars names the
// columns (variables in first-appearance order) and each row binds them
// positionally. All rows share one flat backing array.
type solutions struct {
	Vars []string
	Rows [][]Term
}

// solveRows finds all solutions of the basic graph pattern and returns
// them in compact tabular form — the allocation-light counterpart of
// Solve for callers (Query, benchmarks) that do not need map bindings.
// No patterns means one empty solution. Row order is unspecified; Query
// sorts its projection.
func (g *Graph) solveRows(patterns []Statement) solutions {
	g.mu.RLock()
	defer g.mu.RUnlock()
	pats, vars := g.compileBGP(patterns, false)
	nv := len(vars)
	var plan joinPlan
	plan.reset(len(pats), nv)
	exec := solveExec{
		g:     g,
		pats:  pats,
		order: g.planOrder(&plan, pats, 0),
		row:   make([]uint32, nv),
	}
	var flatIDs []uint32
	count := 0
	exec.emit = func(row []uint32) {
		flatIDs = append(flatIDs, row...)
		count++
	}
	exec.run()
	if count == 0 {
		return solutions{Vars: vars}
	}
	flat := make([]Term, len(flatIDs))
	for i, id := range flatIDs {
		flat[i] = g.dict.Value(id)
	}
	rows := make([][]Term, count)
	for i := range rows {
		rows[i] = flat[i*nv : (i+1)*nv : (i+1)*nv]
	}
	return solutions{Vars: vars, Rows: rows}
}

// Solve finds all bindings satisfying every pattern (a basic graph
// pattern). Patterns are joined in planner-chosen order — most selective
// first by index-estimated cardinality — so the result set is the same as
// the old left-to-right join but its order is unspecified.
func (g *Graph) Solve(patterns []Statement) []Binding {
	sols := g.solveRows(patterns)
	if len(sols.Rows) == 0 {
		return nil
	}
	out := make([]Binding, len(sols.Rows))
	for i, row := range sols.Rows {
		b := make(Binding, len(sols.Vars))
		for j, v := range sols.Vars {
			b[v] = row[j]
		}
		out[i] = b
	}
	return out
}

// sortRows orders equal-length term rows lexicographically in place.
func sortRows(rows [][]Term) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if c := compareTerm(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
