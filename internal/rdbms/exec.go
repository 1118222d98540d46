package rdbms

import (
	"fmt"
	"sort"
	"strings"
)

// ResultSet is the output of a query: named columns and rows.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Exec parses and executes one SQL statement against the database. Writes
// return an empty ResultSet with Rows nil; SELECTs return data.
func (db *DB) Exec(sql string) (ResultSet, error) {
	stmt, err := parseStatement(sql)
	if err != nil {
		return ResultSet{}, err
	}
	switch s := stmt.(type) {
	case createStmt:
		if _, err := db.Create(s.Table, s.Schema); err != nil {
			return ResultSet{}, err
		}
		return ResultSet{}, nil
	case createIndexStmt:
		t, err := db.Table(s.Table)
		if err != nil {
			return ResultSet{}, err
		}
		return ResultSet{}, t.createIndex(s.Column)
	case insertStmt:
		return ResultSet{}, db.execInsert(s)
	case selectStmt:
		return db.execSelect(s)
	case updateStmt:
		return ResultSet{}, db.execUpdate(s)
	case deleteStmt:
		return ResultSet{}, db.execDelete(s)
	default:
		return ResultSet{}, fmt.Errorf("rdbms: unhandled statement %T", stmt)
	}
}

func (db *DB) execInsert(s insertStmt) error {
	t, err := db.Table(s.Table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	colIdx := make([]int, 0, len(schema))
	if len(s.Columns) == 0 {
		for i := range schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range s.Columns {
			i := schema.Index(c)
			if i < 0 {
				return fmt.Errorf("rdbms: no column %q in %s", c, s.Table)
			}
			colIdx = append(colIdx, i)
		}
	}
	for _, vals := range s.Rows {
		if len(vals) != len(colIdx) {
			return fmt.Errorf("rdbms: %d values for %d columns", len(vals), len(colIdx))
		}
		row := make(Row, len(schema))
		for i := range row {
			row[i] = nullV(schema[i].Type)
		}
		for k, ci := range colIdx {
			v := vals[k]
			if v.Null {
				row[ci] = nullV(schema[ci].Type)
				continue
			}
			row[ci] = v
		}
		if err := t.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

// matchIDs returns the candidate row ids for a WHERE clause, using an index
// when the clause is a simple equality on an indexed column, else a full
// scan. Callers still filter the candidates with the clause: the index is
// keyed by each value's text, so it also hands back rows whose value only
// renders the same: NULL renders as the empty string does, and a NULL
// literal compares false with every row.
func matchIDs(t *Table, where expression) []int {
	if b, ok := where.(binaryExpr); ok && b.Op == "=" {
		if col, ok := b.L.(colRef); ok {
			if lit, ok := b.R.(literal); ok {
				if ids, indexed := t.lookup(col.Name, lit.V); indexed {
					return ids
				}
			}
		}
	}
	var ids []int
	_ = t.scan(func(id int, _ Row) error {
		ids = append(ids, id)
		return nil
	})
	return ids
}

func filterRows(t *Table, where expression) ([]Row, error) {
	ids := matchIDs(t, where)
	schema := t.Schema()
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		row := t.row(id)
		if row == nil {
			continue
		}
		if where != nil {
			v, err := where.Eval(row, schema)
			if err != nil {
				return nil, err
			}
			if v.Null || v.Type != typeBool || !v.Bool {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func (db *DB) execSelect(s selectStmt) (ResultSet, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return ResultSet{}, err
	}
	schema := t.Schema()
	rows, err := filterRows(t, s.Where)
	if err != nil {
		return ResultSet{}, err
	}

	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || s.GroupBy != "" {
		return aggregateSelect(s, schema, rows)
	}

	// Plain projection.
	var cols []string
	var idxs []int
	for _, it := range s.Items {
		if it.Star {
			for i, c := range schema {
				cols = append(cols, c.Name)
				idxs = append(idxs, i)
			}
			continue
		}
		i := schema.Index(it.Column)
		if i < 0 {
			return ResultSet{}, fmt.Errorf("rdbms: no column %q", it.Column)
		}
		cols = append(cols, schema[i].Name)
		idxs = append(idxs, i)
	}
	if s.OrderBy != "" {
		oi := schema.Index(s.OrderBy)
		if oi < 0 {
			return ResultSet{}, fmt.Errorf("rdbms: no column %q", s.OrderBy)
		}
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			cmp, err := compareValues(rows[i][oi], rows[j][oi])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
		if sortErr != nil {
			return ResultSet{}, sortErr
		}
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	out := ResultSet{Columns: cols, Rows: make([]Row, len(rows))}
	for ri, row := range rows {
		pr := make(Row, len(idxs))
		for k, i := range idxs {
			pr[k] = row[i]
		}
		out.Rows[ri] = pr
	}
	return out, nil
}

func aggregateSelect(s selectStmt, schema Schema, rows []Row) (ResultSet, error) {
	// Validate items: with GROUP BY, plain columns must be the group
	// column; without, only aggregates are allowed.
	groupIdx := -1
	if s.GroupBy != "" {
		groupIdx = schema.Index(s.GroupBy)
		if groupIdx < 0 {
			return ResultSet{}, fmt.Errorf("rdbms: no column %q", s.GroupBy)
		}
	}
	for _, it := range s.Items {
		if it.Agg == "" {
			if it.Star {
				return ResultSet{}, fmt.Errorf("rdbms: * not allowed with aggregates")
			}
			if groupIdx < 0 || !strings.EqualFold(it.Column, s.GroupBy) {
				return ResultSet{}, fmt.Errorf("rdbms: column %q must appear in GROUP BY", it.Column)
			}
		}
	}
	groups := make(map[string][]Row)
	var order []string
	for _, row := range rows {
		key := ""
		if groupIdx >= 0 {
			key = row[groupIdx].String()
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if groupIdx < 0 && len(groups) == 0 {
		groups[""] = nil
		order = append(order, "")
	}
	sort.Strings(order)

	var cols []string
	for _, it := range s.Items {
		if it.Agg != "" {
			cols = append(cols, fmt.Sprintf("%s(%s)", it.Agg, it.Column))
		} else {
			cols = append(cols, schema[groupIdx].Name)
		}
	}
	out := ResultSet{Columns: cols}
	for _, key := range order {
		grows := groups[key]
		res := make(Row, len(s.Items))
		for k, it := range s.Items {
			if it.Agg == "" {
				if len(grows) > 0 {
					res[k] = grows[0][groupIdx]
				} else {
					res[k] = TextV(key)
				}
				continue
			}
			v, err := applyAgg(it, schema, grows)
			if err != nil {
				return ResultSet{}, err
			}
			res[k] = v
		}
		out.Rows = append(out.Rows, res)
	}
	if s.Limit >= 0 && len(out.Rows) > s.Limit {
		out.Rows = out.Rows[:s.Limit]
	}
	return out, nil
}

func applyAgg(it selectItem, schema Schema, rows []Row) (Value, error) {
	if it.Agg == "COUNT" {
		if it.Column == "*" {
			return intV(int64(len(rows))), nil
		}
		ci := schema.Index(it.Column)
		if ci < 0 {
			return Value{}, fmt.Errorf("rdbms: no column %q", it.Column)
		}
		n := int64(0)
		for _, r := range rows {
			if !r[ci].Null {
				n++
			}
		}
		return intV(n), nil
	}
	ci := schema.Index(it.Column)
	if ci < 0 {
		return Value{}, fmt.Errorf("rdbms: no column %q", it.Column)
	}
	var sum float64
	var count int
	var minV, maxV Value
	for _, r := range rows {
		v := r[ci]
		if v.Null {
			continue
		}
		switch it.Agg {
		case "SUM", "AVG":
			f, err := v.AsFloat()
			if err != nil {
				return Value{}, err
			}
			sum += f
			count++
		case "MIN":
			if count == 0 {
				minV = v
			} else if cmp, err := compareValues(v, minV); err != nil {
				return Value{}, err
			} else if cmp < 0 {
				minV = v
			}
			count++
		case "MAX":
			if count == 0 {
				maxV = v
			} else if cmp, err := compareValues(v, maxV); err != nil {
				return Value{}, err
			} else if cmp > 0 {
				maxV = v
			}
			count++
		default:
			return Value{}, fmt.Errorf("rdbms: unknown aggregate %q", it.Agg)
		}
	}
	switch it.Agg {
	case "SUM":
		return floatV(sum), nil
	case "AVG":
		if count == 0 {
			return nullV(typeFloat), nil
		}
		return floatV(sum / float64(count)), nil
	case "MIN":
		if count == 0 {
			return Value{Null: true}, nil
		}
		return minV, nil
	default: // MAX
		if count == 0 {
			return Value{Null: true}, nil
		}
		return maxV, nil
	}
}

func (db *DB) execUpdate(s updateStmt) error {
	t, err := db.Table(s.Table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	setCols := make([]int, len(s.Columns))
	vals := make([]Value, len(s.Values))
	for k, c := range s.Columns {
		ci := schema.Index(c)
		if ci < 0 {
			return fmt.Errorf("rdbms: no column %q", c)
		}
		setCols[k] = ci
		v := s.Values[k]
		if !v.Null && v.Type != schema[ci].Type {
			if schema[ci].Type == typeFloat && v.Type == typeInt {
				v = floatV(float64(v.Int))
			} else {
				return fmt.Errorf("rdbms: column %q wants %s, got %s", c, schema[ci].Type, v.Type)
			}
		}
		if v.Null {
			v = nullV(schema[ci].Type)
		}
		vals[k] = v
	}
	ids := matchIDs(t, s.Where)
	for _, id := range ids {
		row := t.row(id)
		if row == nil {
			continue
		}
		if s.Where != nil {
			v, err := s.Where.Eval(row, schema)
			if err != nil {
				return err
			}
			if v.Null || v.Type != typeBool || !v.Bool {
				continue
			}
		}
		t.update(id, setCols, vals)
	}
	return nil
}

func (db *DB) execDelete(s deleteStmt) error {
	t, err := db.Table(s.Table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	ids := matchIDs(t, s.Where)
	for _, id := range ids {
		row := t.row(id)
		if row == nil {
			continue
		}
		if s.Where != nil {
			v, err := s.Where.Eval(row, schema)
			if err != nil {
				return err
			}
			if v.Null || v.Type != typeBool || !v.Bool {
				continue
			}
		}
		t.delete(id)
	}
	return nil
}
