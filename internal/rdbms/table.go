package rdbms

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column is one column definition.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema []Column

// Index returns the position of the named column (case-insensitive), or
// -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one tuple, aligned with the table's schema.
type Row []Value

// Table is one relational table with optional hash indexes. It is safe for
// concurrent use.
type Table struct {
	name   string
	schema Schema

	mu      sync.RWMutex
	rows    []Row
	indexes map[string]map[string][]int // column -> value-string -> row ids
}

// newTable creates a table. Column names must be unique (case-insensitive).
func newTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, errors.New("rdbms: empty table name")
	}
	if len(schema) == 0 {
		return nil, errors.New("rdbms: empty schema")
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		lc := strings.ToLower(c.Name)
		if c.Name == "" {
			return nil, errors.New("rdbms: empty column name")
		}
		if seen[lc] {
			return nil, fmt.Errorf("rdbms: duplicate column %q", c.Name)
		}
		seen[lc] = true
	}
	return &Table{
		name:    name,
		schema:  append(Schema(nil), schema...),
		indexes: make(map[string]map[string][]int),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the schema.
func (t *Table) Schema() Schema { return append(Schema(nil), t.schema...) }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row after type-checking it against the schema.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("rdbms: row has %d values, schema has %d columns", len(row), len(t.schema))
	}
	for i, v := range row {
		if v.Null {
			continue
		}
		want := t.schema[i].Type
		if v.Type != want {
			// Int literals are acceptable for float columns.
			if want == typeFloat && v.Type == typeInt {
				row[i] = floatV(float64(v.Int))
				continue
			}
			return fmt.Errorf("rdbms: column %q wants %s, got %s", t.schema[i].Name, want, v.Type)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.rows)
	t.rows = append(t.rows, append(Row(nil), row...))
	for col, idx := range t.indexes {
		ci := t.schema.Index(col)
		key := row[ci].String()
		idx[key] = append(idx[key], id)
	}
	return nil
}

// createIndex builds a hash index on the named column. Idempotent.
func (t *Table) createIndex(column string) error {
	ci := t.schema.Index(column)
	if ci < 0 {
		return fmt.Errorf("rdbms: no column %q", column)
	}
	col := strings.ToLower(column)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	idx := make(map[string][]int)
	for id, row := range t.rows {
		key := row[ci].String()
		idx[key] = append(idx[key], id)
	}
	t.indexes[col] = idx
	return nil
}

// scan calls fn for every live row id and row. Callers must not mutate the
// row. Held under read lock.
func (t *Table) scan(fn func(id int, row Row) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, row := range t.rows {
		if row == nil { // deleted
			continue
		}
		if err := fn(id, row); err != nil {
			return err
		}
	}
	return nil
}

// lookup returns the row ids matching value in the indexed column, or
// (nil, false) if the column is not indexed.
func (t *Table) lookup(column string, v Value) ([]int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[strings.ToLower(column)]
	if !ok {
		return nil, false
	}
	ids := idx[v.String()]
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if t.rows[id] != nil {
			out = append(out, id)
		}
	}
	return out, true
}

// row returns a copy of the row with the given id, or nil if deleted.
func (t *Table) row(id int) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.rows) || t.rows[id] == nil {
		return nil
	}
	return append(Row(nil), t.rows[id]...)
}

// update replaces columns of the row with the given id.
func (t *Table) update(id int, setCols []int, vals []Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[id]
	if row == nil {
		return
	}
	for k, ci := range setCols {
		// Maintain indexes on changed columns.
		colName := strings.ToLower(t.schema[ci].Name)
		if idx, ok := t.indexes[colName]; ok {
			oldKey := row[ci].String()
			ids := idx[oldKey]
			for j, rid := range ids {
				if rid == id {
					idx[oldKey] = append(ids[:j], ids[j+1:]...)
					break
				}
			}
			newKey := vals[k].String()
			idx[newKey] = append(idx[newKey], id)
		}
		row[ci] = vals[k]
	}
}

// delete tombstones the row with the given id.
func (t *Table) delete(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[id]
	if row == nil {
		return
	}
	for col, idx := range t.indexes {
		ci := t.schema.Index(col)
		key := row[ci].String()
		ids := idx[key]
		for j, rid := range ids {
			if rid == id {
				idx[key] = append(ids[:j], ids[j+1:]...)
				break
			}
		}
	}
	t.rows[id] = nil
}

// Rows returns a deep copy of all live rows in insertion order.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, len(t.rows))
	for _, row := range t.rows {
		if row != nil {
			out = append(out, append(Row(nil), row...))
		}
	}
	return out
}

// DB is a named collection of tables. It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Create adds a new table. Duplicate names (case-insensitive) error.
func (db *DB) Create(name string, schema Schema) (*Table, error) {
	t, err := newTable(name, schema)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("rdbms: table %q already exists", name)
	}
	db.tables[key] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("rdbms: no table %q", name)
	}
	return t, nil
}

// Names returns the table names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}
