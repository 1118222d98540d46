package rdf

import (
	"fmt"
	"strings"
)

// Binding maps variable names to terms.
type Binding map[string]Term

// clone copies a binding.
func (b Binding) clone() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// substitute applies the binding to a pattern, grounding bound variables.
func substitute(p Statement, b Binding) Statement {
	return Statement{S: substTerm(p.S, b), P: substTerm(p.P, b), O: substTerm(p.O, b)}
}

func substTerm(t Term, b Binding) Term {
	if t.IsVar() {
		if v, ok := b[t.Value]; ok {
			return v
		}
	}
	return t
}

// unify extends binding b so that pattern p matches ground statement s,
// returning nil when unification fails.
func unify(p, s Statement, b Binding) Binding {
	out := b
	cloned := false
	bindOne := func(pt, st Term) bool {
		if !pt.IsVar() {
			return pt.Zero() || pt == st
		}
		if cur, ok := out[pt.Value]; ok {
			return cur == st
		}
		if !cloned {
			out = out.clone()
			cloned = true
		}
		out[pt.Value] = st
		return true
	}
	if !bindOne(p.S, s.S) || !bindOne(p.P, s.P) || !bindOne(p.O, s.O) {
		return nil
	}
	if !cloned {
		out = out.clone()
	}
	return out
}

// QueryResult is the tabular output of a SPARQL-like query.
type QueryResult struct {
	Vars []string
	Rows [][]Term
}

// Query runs a SPARQL-like query of the form
//
//	SELECT ?a ?b WHERE { ?a <pred> ?b . ?b <other> "literal" }
//
// Only basic graph patterns are supported (the subset the knowledge base
// needs). SELECT * selects every variable in order of first appearance.
func (g *Graph) Query(q string) (QueryResult, error) {
	vars, patterns, err := parseQuery(q)
	if err != nil {
		return QueryResult{}, err
	}
	patternVars := make(map[string]bool)
	var patternOrder []string
	for _, p := range patterns {
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.IsVar() && !patternVars[t.Value] {
				patternVars[t.Value] = true
				patternOrder = append(patternOrder, t.Value)
			}
		}
	}
	if len(vars) == 0 { // SELECT *
		vars = patternOrder
	} else {
		for _, v := range vars {
			if !patternVars[v] {
				return QueryResult{}, fmt.Errorf("rdf: selected variable ?%s does not appear in WHERE", v)
			}
		}
	}
	sols := g.solveRows(patterns)
	res := QueryResult{Vars: vars}
	if len(sols.Rows) == 0 {
		return res, nil
	}
	// Project the solver columns onto the SELECT list, then sort and
	// dedupe adjacent duplicates — same result set as the old
	// string-keyed dedupe, without building a key per row.
	colIdx := make([]int, len(vars))
	for i, v := range vars {
		for j, sv := range sols.Vars {
			if sv == v {
				colIdx[i] = j
				break
			}
		}
	}
	nv := len(vars)
	flat := make([]Term, 0, len(sols.Rows)*nv)
	for _, row := range sols.Rows {
		for _, ci := range colIdx {
			flat = append(flat, row[ci])
		}
	}
	rows := make([][]Term, len(sols.Rows))
	for i := range rows {
		rows[i] = flat[i*nv : (i+1)*nv : (i+1)*nv]
	}
	sortRows(rows)
	for i, row := range rows {
		if i == 0 || !rowsEqual(row, res.Rows[len(res.Rows)-1]) {
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func rowsEqual(a, b []Term) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parseQuery parses "SELECT ?x ?y WHERE { pattern . pattern }".
func parseQuery(q string) (vars []string, patterns []Statement, err error) {
	trimmed := strings.TrimSpace(q)
	upper := strings.ToUpper(trimmed)
	if !strings.HasPrefix(upper, "SELECT") {
		return nil, nil, fmt.Errorf("rdf: query must start with SELECT")
	}
	// Locate the WHERE keyword as the token immediately before the brace
	// (a variable may legitimately be named ?where).
	braceIdx := strings.Index(trimmed, "{")
	if braceIdx < 0 {
		return nil, nil, fmt.Errorf("rdf: query missing WHERE clause")
	}
	beforeBrace := strings.TrimSpace(trimmed[:braceIdx])
	if !strings.HasSuffix(strings.ToUpper(beforeBrace), "WHERE") {
		return nil, nil, fmt.Errorf("rdf: query missing WHERE")
	}
	whereIdx := len(beforeBrace) - len("WHERE")
	head := strings.TrimSpace(trimmed[len("SELECT"):whereIdx])
	if head != "*" {
		for _, f := range strings.Fields(head) {
			if !strings.HasPrefix(f, "?") || len(f) < 2 {
				return nil, nil, fmt.Errorf("rdf: bad select item %q", f)
			}
			vars = append(vars, f[1:])
		}
		if len(vars) == 0 {
			return nil, nil, fmt.Errorf("rdf: SELECT needs variables or *")
		}
	}
	rest := strings.TrimSpace(trimmed[whereIdx+len("WHERE"):])
	if !strings.HasPrefix(rest, "{") || !strings.HasSuffix(rest, "}") {
		return nil, nil, fmt.Errorf("rdf: WHERE clause must be braced")
	}
	body := rest[1 : len(rest)-1]
	for _, part := range splitPatterns(body) {
		p, err := parsePattern(part)
		if err != nil {
			return nil, nil, err
		}
		patterns = append(patterns, p)
	}
	if len(patterns) == 0 {
		return nil, nil, fmt.Errorf("rdf: empty WHERE clause")
	}
	return vars, patterns, nil
}

// splitPatterns splits on '.' separators that are outside quotes and IRI
// brackets.
func splitPatterns(body string) []string {
	var parts []string
	var cur strings.Builder
	inQuote, inIRI := false, false
	for i := 0; i < len(body); i++ {
		ch := body[i]
		switch {
		case ch == '"' && !inIRI:
			inQuote = !inQuote
			cur.WriteByte(ch)
		case ch == '<' && !inQuote:
			inIRI = true
			cur.WriteByte(ch)
		case ch == '>' && !inQuote:
			inIRI = false
			cur.WriteByte(ch)
		case ch == '.' && !inQuote && !inIRI:
			if s := strings.TrimSpace(cur.String()); s != "" {
				parts = append(parts, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		parts = append(parts, s)
	}
	return parts
}

// parsePattern parses "term term term".
func parsePattern(s string) (Statement, error) {
	fields, err := splitTerms(s)
	if err != nil {
		return Statement{}, err
	}
	if len(fields) != 3 {
		return Statement{}, fmt.Errorf("rdf: pattern %q needs 3 terms, has %d", s, len(fields))
	}
	var out [3]Term
	for i, f := range fields {
		t, err := parseTerm(f)
		if err != nil {
			return Statement{}, err
		}
		out[i] = t
	}
	return Statement{S: out[0], P: out[1], O: out[2]}, nil
}

// splitTerms tokenizes a pattern respecting quoted literals and IRIs with
// spaces.
func splitTerms(s string) ([]string, error) {
	var out []string
	i := 0
	n := len(s)
	for i < n {
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
			i++
		}
		if i >= n {
			break
		}
		switch s[i] {
		case '"':
			j := i + 1
			for j < n && s[j] != '"' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("rdf: unterminated literal in %q", s)
			}
			out = append(out, s[i:j+1])
			i = j + 1
		case '<':
			j := i + 1
			for j < n && s[j] != '>' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("rdf: unterminated IRI in %q", s)
			}
			out = append(out, s[i:j+1])
			i = j + 1
		default:
			j := i
			for j < n && s[j] != ' ' && s[j] != '\t' && s[j] != '\n' {
				j++
			}
			out = append(out, s[i:j])
			i = j
		}
	}
	return out, nil
}
