package rdbms

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// FuzzSelect holds DB.Exec's SELECT … WHERE … ORDER BY … LIMIT to a naive
// scan of the same rows. The input decodes into a table t (id INT, k INT,
// s TEXT, x FLOAT) of up to 15 rows with NULLs, an optional index on k or
// s (so equality on it takes the index path), a WHERE clause of up to two
// levels of NOT/AND/OR over well-typed comparisons (NULL literals
// included), an ORDER BY column and direction and a LIMIT. The model
// filters the rows `SELECT * FROM t` returns in insertion order —
// comparisons with NULL are false — then sorts them stably with NULLs
// first and cuts them at the limit.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{0, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 1, 2, 1, 3})
	f.Add([]byte{1, 8, 7, 0, 0, 1, 1, 7, 2, 2, 3, 3, 7, 4, 5, 5, 6, 6, 7, 7, 3, 2, 1, 9, 0, 5})
	f.Add([]byte{2, 3, 0, 3, 1, 1, 2, 2, 9, 1, 4, 2, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := sqlInput{data: data}
		db := NewDB()
		mustExec(t, db, "CREATE TABLE t (id INT, k INT, s TEXT, x FLOAT)")
		switch in.byte() % 3 {
		case 1:
			mustExec(t, db, "CREATE INDEX ON t (k)")
		case 2:
			mustExec(t, db, "CREATE INDEX ON t (s)")
		}
		n := int(in.byte() % 16)
		for id := 0; id < n; id++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO t (id, k, s, x) VALUES (%d, %s, %s, %s)",
				id, in.intLit(), in.textLit(), in.floatLit()))
		}
		rows := mustExec(t, db, "SELECT * FROM t").Rows
		if len(rows) != n {
			t.Fatalf("SELECT * FROM t: %d rows, inserted %d", len(rows), n)
		}

		sql := "SELECT id, k, s, x FROM t"
		keep := func(Row) bool { return true }
		if in.byte()%4 != 0 {
			var where string
			where, keep = in.predicate(2)
			sql += " WHERE " + where
		}
		order, desc := in.byte()%5, in.byte()%2 == 1
		if order > 0 {
			sql += " ORDER BY " + sqlColumns[order-1]
			if desc {
				sql += " DESC"
			}
		}
		limit := int(in.byte()%20) - 3
		if limit >= 0 {
			sql += fmt.Sprintf(" LIMIT %d", limit)
		}

		var want []Row
		for _, r := range rows {
			if keep(r) {
				want = append(want, r)
			}
		}
		if order > 0 {
			c := int(order - 1)
			sort.SliceStable(want, func(i, j int) bool {
				if desc {
					return naiveLess(want[j][c], want[i][c])
				}
				return naiveLess(want[i][c], want[j][c])
			})
		}
		if limit >= 0 && len(want) > limit {
			want = want[:limit]
		}

		got, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if g, w := renderRows(got.Rows), renderRows(want); g != w {
			t.Fatalf("%s\ngot:\n%s\nwant (naive scan):\n%s", sql, g, w)
		}
	})
}

// sqlColumns are the columns of FuzzSelect's table, in schema order.
var sqlColumns = []string{"id", "k", "s", "x"}

// sqlInput decodes FuzzSelect's bytes; past the end it reads zeros.
type sqlInput struct{ data []byte }

func (in *sqlInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// intLit is an INT literal in -3..3, or NULL.
func (in *sqlInput) intLit() string {
	b := in.byte() % 8
	if b == 7 {
		return "NULL"
	}
	return fmt.Sprint(int(b) - 3)
}

var sqlTexts = []string{"a", "b", "ab", "ba", "", "NULL"}

// textLit is a TEXT literal over a small alphabet, the empty string, or
// NULL.
func (in *sqlInput) textLit() string {
	s := sqlTexts[int(in.byte())%len(sqlTexts)]
	if s == "NULL" {
		return s
	}
	return "'" + s + "'"
}

// floatLit is a FLOAT literal in -1.5..2, or NULL.
func (in *sqlInput) floatLit() string {
	b := in.byte() % 8
	if b == 7 {
		return "NULL"
	}
	return fmt.Sprintf("%.1f", float64(b)/2-1.5)
}

var sqlOps = []string{"=", "!=", "<>", "<", "<=", ">", ">="}

// predicate returns a WHERE clause of at most depth levels of NOT, AND
// and OR and the model's reading of it.
func (in *sqlInput) predicate(depth int) (string, func(Row) bool) {
	kind := in.byte() % 4
	if depth == 0 {
		kind = 0
	}
	switch kind {
	case 1:
		s, p := in.predicate(depth - 1)
		return "NOT (" + s + ")", func(r Row) bool { return !p(r) }
	case 2, 3:
		ls, lp := in.predicate(depth - 1)
		rs, rp := in.predicate(depth - 1)
		if kind == 2 {
			return "(" + ls + ") AND (" + rs + ")", func(r Row) bool { return lp(r) && rp(r) }
		}
		return "(" + ls + ") OR (" + rs + ")", func(r Row) bool { return lp(r) || rp(r) }
	}
	c := int(in.byte() % 4)
	op := sqlOps[int(in.byte())%len(sqlOps)]
	var lit string
	switch sqlColumns[c] {
	case "s":
		lit = in.textLit()
	case "x":
		lit = in.floatLit()
	default:
		lit = in.intLit()
	}
	litV, err := (&parser{toks: mustLex(lit)}).literal()
	if err != nil {
		panic(err)
	}
	return sqlColumns[c] + " " + op + " " + lit, func(r Row) bool {
		v := r[c]
		if v.Null || litV.Null {
			return false
		}
		cmp := naiveCompare(v, litV)
		switch op {
		case "=":
			return cmp == 0
		case "!=", "<>":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		}
		return cmp >= 0
	}
}

func mustLex(s string) []token {
	toks, err := lex(s)
	if err != nil {
		panic(err)
	}
	return toks
}

// naiveCompare orders two non-NULL values of the same kind: numbers by
// value, text bytewise.
func naiveCompare(a, b Value) int {
	if a.Type == TypeText {
		return strings.Compare(a.Text, b.Text)
	}
	af, bf := a.Float, b.Float
	if a.Type == typeInt {
		af = float64(a.Int)
	}
	if b.Type == typeInt {
		bf = float64(b.Int)
	}
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// naiveLess is ORDER BY's order: NULL before every value.
func naiveLess(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null && !b.Null
	}
	return naiveCompare(a, b) < 0
}

func renderRows(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			if v.Null {
				b.WriteString("NULL")
			} else {
				b.WriteString(v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
