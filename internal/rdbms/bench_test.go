package rdbms

import (
	"fmt"
	"strings"
	"testing"
)

func benchDB(b *testing.B, rows int, index bool) *DB {
	b.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE bench (id INT, name TEXT, score FLOAT)"); err != nil {
		b.Fatal(err)
	}
	if index {
		if _, err := db.Exec("CREATE INDEX ON bench (name)"); err != nil {
			b.Fatal(err)
		}
	}
	t, err := db.Table("bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := Row{intV(int64(i)), TextV(fmt.Sprintf("name%d", i%500)), floatV(float64(i % 100))}
		if err := t.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkParseSelect(b *testing.B) {
	q := "SELECT id, name FROM bench WHERE score > 50 AND name = 'name7' ORDER BY id DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseStatement(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(b, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("INSERT INTO bench (id, name, score) VALUES (%d, 'n%d', %d)", i, i, i%100)
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan10k(b *testing.B) {
	db := benchDB(b, 10000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Exec("SELECT id FROM bench WHERE name = 'name42'")
		if err != nil || len(rs.Rows) == 0 {
			b.Fatalf("(%d, %v)", len(rs.Rows), err)
		}
	}
}

func BenchmarkSelectIndexed10k(b *testing.B) {
	db := benchDB(b, 10000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Exec("SELECT id FROM bench WHERE name = 'name42'")
		if err != nil || len(rs.Rows) == 0 {
			b.Fatalf("(%d, %v)", len(rs.Rows), err)
		}
	}
}

func BenchmarkAggregateGroupBy(b *testing.B) {
	db := benchDB(b, 10000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Exec("SELECT score, COUNT(*), AVG(id) FROM bench GROUP BY score")
		if err != nil || len(rs.Rows) != 100 {
			b.Fatalf("(%d, %v)", len(rs.Rows), err)
		}
	}
}

func BenchmarkImportCSV1k(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("id,name,score\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d,item%d,%d.5\n", i, i, i%100)
	}
	data := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB()
		if _, err := db.ImportCSV("t", strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
