package rdbms

import (
	"fmt"
	"strings"
	"testing"
)

// mustExec runs SQL and fails the test on error.
func mustExec(t *testing.T, db *DB, sql string) ResultSet {
	t.Helper()
	rs, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return rs
}

func seededDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE people (name TEXT, age INT, score FLOAT, active BOOL)")
	mustExec(t, db, "INSERT INTO people (name, age, score, active) VALUES "+
		"('alice', 30, 9.5, TRUE), ('bob', 25, 7.25, FALSE), ('carol', 35, 8.0, TRUE), ('dave', 25, NULL, TRUE)")
	return db
}

func TestCreateAndInsertSelect(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT * FROM people")
	if len(rs.Rows) != 4 || len(rs.Columns) != 4 {
		t.Fatalf("result = %+v", rs)
	}
	if rs.Columns[0] != "name" || rs.Columns[3] != "active" {
		t.Errorf("columns = %v", rs.Columns)
	}
}

func TestSelectProjection(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT name, age FROM people WHERE name = 'alice'")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text != "alice" || rs.Rows[0][1].Int != 30 {
		t.Errorf("result = %+v", rs)
	}
}

func TestWhereComparisons(t *testing.T) {
	db := seededDB(t)
	tests := []struct {
		where string
		want  int
	}{
		{"age = 25", 2},
		{"age != 25", 2},
		{"age <> 25", 2},
		{"age > 25", 2},
		{"age >= 25", 4},
		{"age < 30", 2},
		{"age <= 30", 3},
		{"active = TRUE", 3},
		{"score > 8.0", 1},
		{"name > 'bob'", 2},
	}
	for _, tt := range tests {
		rs := mustExec(t, db, "SELECT name FROM people WHERE "+tt.where)
		if len(rs.Rows) != tt.want {
			t.Errorf("WHERE %s returned %d rows, want %d", tt.where, len(rs.Rows), tt.want)
		}
	}
}

func TestWhereBooleanLogic(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT name FROM people WHERE age = 25 AND active = FALSE")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text != "bob" {
		t.Errorf("AND result = %+v", rs)
	}
	rs = mustExec(t, db, "SELECT name FROM people WHERE age = 30 OR age = 35")
	if len(rs.Rows) != 2 {
		t.Errorf("OR returned %d rows", len(rs.Rows))
	}
	rs = mustExec(t, db, "SELECT name FROM people WHERE NOT (age = 25)")
	if len(rs.Rows) != 2 {
		t.Errorf("NOT returned %d rows", len(rs.Rows))
	}
	rs = mustExec(t, db, "SELECT name FROM people WHERE (age = 25 OR age = 30) AND active = TRUE")
	if len(rs.Rows) != 2 {
		t.Errorf("parenthesized returned %d rows", len(rs.Rows))
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	db := seededDB(t)
	// dave has NULL score; NULL comparisons never match.
	rs := mustExec(t, db, "SELECT name FROM people WHERE score > 0")
	if len(rs.Rows) != 3 {
		t.Errorf("NULL score matched: %d rows", len(rs.Rows))
	}
	rs = mustExec(t, db, "SELECT name FROM people WHERE score = NULL")
	if len(rs.Rows) != 0 {
		t.Errorf("= NULL matched %d rows", len(rs.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT name FROM people ORDER BY age ASC LIMIT 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	// bob and dave both 25; stable order keeps insertion order.
	if rs.Rows[0][0].Text != "bob" || rs.Rows[1][0].Text != "dave" {
		t.Errorf("order = %v, %v", rs.Rows[0][0].Text, rs.Rows[1][0].Text)
	}
	rs = mustExec(t, db, "SELECT name FROM people ORDER BY age DESC LIMIT 1")
	if rs.Rows[0][0].Text != "carol" {
		t.Errorf("DESC first = %v", rs.Rows[0][0].Text)
	}
}

func TestAggregates(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT COUNT(*), COUNT(score), SUM(age), AVG(age), MIN(age), MAX(age) FROM people")
	row := rs.Rows[0]
	if row[0].Int != 4 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1].Int != 3 { // NULL score excluded
		t.Errorf("COUNT(score) = %v", row[1])
	}
	if row[2].Float != 115 {
		t.Errorf("SUM(age) = %v", row[2])
	}
	if row[3].Float != 28.75 {
		t.Errorf("AVG(age) = %v", row[3])
	}
	if row[4].Int != 25 || row[5].Int != 35 {
		t.Errorf("MIN/MAX = %v/%v", row[4], row[5])
	}
}

func TestGroupBy(t *testing.T) {
	db := seededDB(t)
	rs := mustExec(t, db, "SELECT age, COUNT(*) FROM people GROUP BY age ORDER BY age")
	if len(rs.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rs.Rows))
	}
	// Groups sorted by key string: "25", "30", "35".
	if rs.Rows[0][0].Int != 25 || rs.Rows[0][1].Int != 2 {
		t.Errorf("group 25 = %+v", rs.Rows[0])
	}
}

func TestGroupByRequiresGroupedColumn(t *testing.T) {
	db := seededDB(t)
	if _, err := db.Exec("SELECT name, COUNT(*) FROM people GROUP BY age"); err == nil {
		t.Error("ungrouped column accepted")
	}
}

func TestAggregatesEmptyTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE empty (x INT)")
	rs := mustExec(t, db, "SELECT COUNT(*), AVG(x), MIN(x) FROM empty")
	row := rs.Rows[0]
	if row[0].Int != 0 {
		t.Errorf("COUNT = %v", row[0])
	}
	if !row[1].Null || !row[2].Null {
		t.Errorf("empty AVG/MIN should be NULL: %+v", row)
	}
}

func TestUpdate(t *testing.T) {
	db := seededDB(t)
	mustExec(t, db, "UPDATE people SET age = 26, active = TRUE WHERE name = 'bob'")
	rs := mustExec(t, db, "SELECT age, active FROM people WHERE name = 'bob'")
	if rs.Rows[0][0].Int != 26 || !rs.Rows[0][1].Bool {
		t.Errorf("updated row = %+v", rs.Rows[0])
	}
	// Update without WHERE touches everything.
	mustExec(t, db, "UPDATE people SET score = 1.0")
	rs = mustExec(t, db, "SELECT COUNT(*) FROM people WHERE score = 1.0")
	if rs.Rows[0][0].Int != 4 {
		t.Errorf("bulk update hit %v rows", rs.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := seededDB(t)
	mustExec(t, db, "DELETE FROM people WHERE age = 25")
	rs := mustExec(t, db, "SELECT COUNT(*) FROM people")
	if rs.Rows[0][0].Int != 2 {
		t.Errorf("after delete COUNT = %v", rs.Rows[0][0])
	}
	mustExec(t, db, "DELETE FROM people")
	rs = mustExec(t, db, "SELECT COUNT(*) FROM people")
	if rs.Rows[0][0].Int != 0 {
		t.Errorf("after bulk delete COUNT = %v", rs.Rows[0][0])
	}
}

func TestIndexedLookupMatchesScan(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv (k, v) VALUES ('key%d', %d)", i%20, i))
	}
	scan := mustExec(t, db, "SELECT v FROM kv WHERE k = 'key7'")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	tab, err := db.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	tab.mu.RLock()
	_, ok := tab.indexes["k"]
	tab.mu.RUnlock()
	if !ok {
		t.Fatal("index not created")
	}
	indexed := mustExec(t, db, "SELECT v FROM kv WHERE k = 'key7'")
	if len(scan.Rows) != len(indexed.Rows) {
		t.Errorf("scan %d rows, indexed %d rows", len(scan.Rows), len(indexed.Rows))
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES ('a', 1), ('a', 2), ('b', 3)")
	mustExec(t, db, "DELETE FROM kv WHERE v = 1")
	rs := mustExec(t, db, "SELECT v FROM kv WHERE k = 'a'")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 2 {
		t.Errorf("after delete: %+v", rs)
	}
	mustExec(t, db, "UPDATE kv SET k = 'c' WHERE v = 2")
	rs = mustExec(t, db, "SELECT v FROM kv WHERE k = 'c'")
	if len(rs.Rows) != 1 {
		t.Errorf("after update: %+v", rs)
	}
	rs = mustExec(t, db, "SELECT v FROM kv WHERE k = 'a'")
	if len(rs.Rows) != 0 {
		t.Errorf("stale index entry: %+v", rs)
	}
}

func TestTypeChecking(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (n INT)")
	if _, err := db.Exec("INSERT INTO t (n) VALUES ('text')"); err == nil {
		t.Error("text into INT accepted")
	}
	// Int into float is fine.
	mustExec(t, db, "CREATE TABLE f (x FLOAT)")
	mustExec(t, db, "INSERT INTO f (x) VALUES (3)")
	rs := mustExec(t, db, "SELECT x FROM f")
	if rs.Rows[0][0].Float != 3 {
		t.Errorf("coerced value = %+v", rs.Rows[0][0])
	}
}

func TestStringEscaping(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE q (s TEXT)")
	mustExec(t, db, "INSERT INTO q (s) VALUES ('it''s quoted')")
	rs := mustExec(t, db, "SELECT s FROM q")
	if rs.Rows[0][0].Text != "it's quoted" {
		t.Errorf("escaped string = %q", rs.Rows[0][0].Text)
	}
}

func TestNegativeNumbers(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE n (x INT)")
	mustExec(t, db, "INSERT INTO n (x) VALUES (-5), (3)")
	rs := mustExec(t, db, "SELECT x FROM n WHERE x < 0")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != -5 {
		t.Errorf("negative = %+v", rs)
	}
}

func TestParseErrors(t *testing.T) {
	db := seededDB(t)
	bad := []string{
		"SELEC name FROM people",
		"SELECT FROM people",
		"SELECT name people",
		"INSERT people VALUES (1)",
		"CREATE TABLE (x INT)",
		"SELECT name FROM people WHERE",
		"SELECT name FROM people LIMIT x",
		"SELECT name FROM people; SELECT 1",
		"UPDATE people SET",
		"INSERT INTO people (name) VALUES ('x',)",
		"SELECT name FROM people WHERE name = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	db := seededDB(t)
	bad := []string{
		"SELECT nope FROM people",
		"SELECT name FROM ghosts",
		"INSERT INTO people (ghost) VALUES (1)",
		"INSERT INTO people (name) VALUES (1, 2)",
		"SELECT name FROM people ORDER BY ghost",
		"SELECT SUM(name) FROM people",
		"CREATE TABLE people (x INT)",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
}

func TestNames(t *testing.T) {
	db := seededDB(t)
	if got := db.Names(); len(got) != 1 || got[0] != "people" {
		t.Errorf("Names = %v", got)
	}
}

func TestCSVImportExportRoundTrip(t *testing.T) {
	db := NewDB()
	in := "name,age,score,active\nalice,30,9.5,true\nbob,25,7.25,false\ncarol,,8,true\n"
	tab, err := db.ImportCSV("folks", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	schema := tab.Schema()
	wantTypes := []Type{TypeText, typeInt, typeFloat, typeBool}
	for i, wt := range wantTypes {
		if schema[i].Type != wt {
			t.Errorf("column %s inferred %s, want %s", schema[i].Name, schema[i].Type, wt)
		}
	}
	// carol's empty age is NULL.
	rs := mustExec(t, db, "SELECT COUNT(age) FROM folks")
	if rs.Rows[0][0].Int != 2 {
		t.Errorf("COUNT(age) = %v", rs.Rows[0][0])
	}
	var out strings.Builder
	if err := tab.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "name,age,score,active\n") {
		t.Errorf("export header = %q", got)
	}
	if !strings.Contains(got, "alice,30,9.5,true") {
		t.Errorf("export missing alice row: %q", got)
	}
	// Re-import the export: same row count.
	db2 := NewDB()
	tab2, err := db2.ImportCSV("folks", strings.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != tab.Len() {
		t.Errorf("round trip rows = %d, want %d", tab2.Len(), tab.Len())
	}
}

func TestImportCSVErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.ImportCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := db.ImportCSV("y", strings.NewReader("a,b\n1,2,3\n")); err == nil {
		t.Error("ragged csv accepted")
	}
}

func TestMultiRowInsert(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE m (x INT)")
	mustExec(t, db, "INSERT INTO m (x) VALUES (1), (2), (3)")
	rs := mustExec(t, db, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].Int != 3 {
		t.Errorf("COUNT = %v", rs.Rows[0][0])
	}
}

func TestInsertSchemaOrder(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 'one')")
	rs := mustExec(t, db, "SELECT b FROM s WHERE a = 1")
	if rs.Rows[0][0].Text != "one" {
		t.Errorf("row = %+v", rs.Rows[0])
	}
}
