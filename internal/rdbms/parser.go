package rdbms

import (
	"fmt"
	"strconv"
	"strings"
)

// statement is a parsed SQL statement.
type statement interface{ isStmt() }

// createStmt is CREATE TABLE name (col TYPE, ...).
type createStmt struct {
	Table  string
	Schema Schema
}

// createIndexStmt is CREATE INDEX ON table (column).
type createIndexStmt struct {
	Table  string
	Column string
}

// insertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type insertStmt struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]Value
}

// selectItem is one projection: a column, * (Star), or an aggregate.
type selectItem struct {
	Star   bool
	Column string
	Agg    string // COUNT, SUM, AVG, MIN, MAX; empty for plain column
}

// selectStmt is SELECT items FROM table [WHERE expr] [GROUP BY col]
// [ORDER BY col [ASC|DESC]] [LIMIT n].
type selectStmt struct {
	Table   string
	Items   []selectItem
	Where   expression
	GroupBy string
	OrderBy string
	Desc    bool
	Limit   int // -1 means no limit
}

// updateStmt is UPDATE table SET col = v, ... [WHERE expr].
type updateStmt struct {
	Table   string
	Columns []string
	Values  []Value
	Where   expression
}

// deleteStmt is DELETE FROM table [WHERE expr].
type deleteStmt struct {
	Table string
	Where expression
}

func (createStmt) isStmt()      {}
func (createIndexStmt) isStmt() {}
func (insertStmt) isStmt()      {}
func (selectStmt) isStmt()      {}
func (updateStmt) isStmt()      {}
func (deleteStmt) isStmt()      {}

// expression is a WHERE-clause expression over a row.
type expression interface {
	Eval(row Row, schema Schema) (Value, error)
}

// colRef references a column by name.
type colRef struct{ Name string }

// literal is a literal value.
type literal struct{ V Value }

// binaryExpr applies an operator: comparison or AND/OR.
type binaryExpr struct {
	Op   string
	L, R expression
}

// notExpr negates a boolean expression.
type notExpr struct{ E expression }

// Eval implements Expr.
func (c colRef) Eval(row Row, schema Schema) (Value, error) {
	i := schema.Index(c.Name)
	if i < 0 {
		return Value{}, fmt.Errorf("rdbms: no column %q", c.Name)
	}
	return row[i], nil
}

// Eval implements Expr.
func (l literal) Eval(Row, Schema) (Value, error) { return l.V, nil }

// Eval implements Expr.
func (b binaryExpr) Eval(row Row, schema Schema) (Value, error) {
	lv, err := b.L.Eval(row, schema)
	if err != nil {
		return Value{}, err
	}
	switch b.Op {
	case "AND", "OR":
		if lv.Type != typeBool || lv.Null {
			return Value{}, fmt.Errorf("rdbms: %s needs boolean operands", b.Op)
		}
		// Short circuit.
		if b.Op == "AND" && !lv.Bool {
			return boolV(false), nil
		}
		if b.Op == "OR" && lv.Bool {
			return boolV(true), nil
		}
		rv, err := b.R.Eval(row, schema)
		if err != nil {
			return Value{}, err
		}
		if rv.Type != typeBool || rv.Null {
			return Value{}, fmt.Errorf("rdbms: %s needs boolean operands", b.Op)
		}
		return rv, nil
	}
	rv, err := b.R.Eval(row, schema)
	if err != nil {
		return Value{}, err
	}
	// SQL semantics: comparisons with NULL are false.
	if lv.Null || rv.Null {
		return boolV(false), nil
	}
	cmp, err := compareValues(lv, rv)
	if err != nil {
		return Value{}, err
	}
	switch b.Op {
	case "=":
		return boolV(cmp == 0), nil
	case "!=", "<>":
		return boolV(cmp != 0), nil
	case "<":
		return boolV(cmp < 0), nil
	case "<=":
		return boolV(cmp <= 0), nil
	case ">":
		return boolV(cmp > 0), nil
	case ">=":
		return boolV(cmp >= 0), nil
	default:
		return Value{}, fmt.Errorf("rdbms: unknown operator %q", b.Op)
	}
}

// Eval implements Expr.
func (n notExpr) Eval(row Row, schema Schema) (Value, error) {
	v, err := n.E.Eval(row, schema)
	if err != nil {
		return Value{}, err
	}
	if v.Type != typeBool || v.Null {
		return Value{}, fmt.Errorf("rdbms: NOT needs a boolean operand")
	}
	return boolV(!v.Bool), nil
}

// parser consumes tokens.
type parser struct {
	toks []token
	pos  int
}

// parseStatement parses one SQL statement.
func parseStatement(input string) (statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("rdbms: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return t, nil
	}
	return token{}, fmt.Errorf("rdbms: expected %q at %d, got %q", text, t.pos, t.text)
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", fmt.Errorf("rdbms: expected identifier at %d, got %q", t.pos, t.text)
}

func (p *parser) statement() (statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("rdbms: expected statement at %d, got %q", t.pos, t.text)
	}
	switch t.text {
	case "CREATE":
		return p.create()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.deleteStmt()
	default:
		return nil, fmt.Errorf("rdbms: unsupported statement %q", t.text)
	}
}

func (p *parser) create() (statement, error) {
	p.next() // CREATE
	if p.accept(tokKeyword, "INDEX") {
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return createIndexStmt{Table: table, Column: col}, nil
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var schema Schema
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		typeTok := p.next()
		if typeTok.kind != tokIdent && typeTok.kind != tokKeyword {
			return nil, fmt.Errorf("rdbms: expected type at %d", typeTok.pos)
		}
		ty, err := parseType(typeTok.text)
		if err != nil {
			return nil, err
		}
		schema = append(schema, Column{Name: col, Type: ty})
		if p.accept(tokPunct, ",") {
			continue
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		break
	}
	return createStmt{Table: table, Schema: schema}, nil
}

func (p *parser) insert() (statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.accept(tokPunct, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.accept(tokPunct, ",") {
				continue
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Value
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(tokPunct, ",") {
				continue
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
		rows = append(rows, row)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	return insertStmt{Table: table, Columns: cols, Rows: rows}, nil
}

func (p *parser) literal() (Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Value{}, fmt.Errorf("rdbms: bad number %q: %w", t.text, err)
			}
			return floatV(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("rdbms: bad number %q: %w", t.text, err)
		}
		return intV(n), nil
	case tokString:
		return TextV(t.text), nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			return Value{Null: true}, nil
		case "TRUE":
			return boolV(true), nil
		case "FALSE":
			return boolV(false), nil
		}
	}
	return Value{}, fmt.Errorf("rdbms: expected literal at %d, got %q", t.pos, t.text)
}

func (p *parser) selectStmt() (statement, error) {
	p.next() // SELECT
	stmt := selectStmt{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = col
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = col
		if p.accept(tokKeyword, "DESC") {
			stmt.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("rdbms: LIMIT needs a number at %d", t.pos)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("rdbms: bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) selectItem() (selectItem, error) {
	t := p.peek()
	if t.kind == tokPunct && t.text == "*" {
		p.next()
		return selectItem{Star: true}, nil
	}
	if t.kind == tokKeyword && aggNames[t.text] {
		agg := p.next().text
		if _, err := p.expect(tokPunct, "("); err != nil {
			return selectItem{}, err
		}
		var col string
		if p.accept(tokPunct, "*") {
			if agg != "COUNT" {
				return selectItem{}, fmt.Errorf("rdbms: %s(*) is not supported", agg)
			}
			col = "*"
		} else {
			c, err := p.ident()
			if err != nil {
				return selectItem{}, err
			}
			col = c
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return selectItem{}, err
		}
		return selectItem{Agg: agg, Column: col}, nil
	}
	col, err := p.ident()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{Column: col}, nil
}

func (p *parser) update() (statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	stmt := updateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		stmt.Values = append(stmt.Values, v)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) deleteStmt() (statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := deleteStmt{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// expr parses OR-level expressions (lowest precedence).
func (p *parser) expr() (expression, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = binaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) andExpr() (expression, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = binaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) notExpr() (expression, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return notExpr{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (expression, error) {
	if p.accept(tokPunct, "(") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		p.next()
		right, err := p.operand()
		if err != nil {
			return nil, err
		}
		return binaryExpr{Op: t.text, L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) operand() (expression, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return colRef{Name: t.text}, nil
	}
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return literal{V: v}, nil
}
