package csvconv

import (
	"strings"
	"testing"

	"repro/internal/rdbms"
	"repro/internal/rdf"
)

const peopleCSV = "id,name,age\np1,alice,30\np2,bob,25\np3,,35\n"

func importedTable(t *testing.T) (*rdbms.DB, *rdbms.Table) {
	t.Helper()
	db := rdbms.NewDB()
	tab, err := db.ImportCSV("people", strings.NewReader(peopleCSV))
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestTableToStatements(t *testing.T) {
	_, tab := importedTable(t)
	stmts, err := TableToStatements(tab, "id", "kb:")
	if err != nil {
		t.Fatal(err)
	}
	// p1 and p2 have name+age (2 each); p3 has name NULL so only age.
	if len(stmts) != 5 {
		t.Fatalf("statements = %d, want 5: %v", len(stmts), stmts)
	}
	g := rdf.NewGraph()
	if _, err := g.AddAll(stmts); err != nil {
		t.Fatal(err)
	}
	res, err := g.Query(`SELECT ?n WHERE { <kb:p1> <kb:name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "alice" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTableToStatementsBadColumn(t *testing.T) {
	_, tab := importedTable(t)
	if _, err := TableToStatements(tab, "ghost", "kb:"); err == nil {
		t.Error("missing subject column accepted")
	}
}

func TestStatementsTableRoundTrip(t *testing.T) {
	_, tab := importedTable(t)
	stmts, err := TableToStatements(tab, "id", "kb:")
	if err != nil {
		t.Fatal(err)
	}
	db2 := rdbms.NewDB()
	spo, err := StatementsToTable(db2, "triples", stmts)
	if err != nil {
		t.Fatal(err)
	}
	if spo.Len() != len(stmts) {
		t.Errorf("table rows = %d, want %d", spo.Len(), len(stmts))
	}
	rs, err := db2.Exec("SELECT object FROM triples WHERE subject = 'kb:p2' AND predicate = 'kb:age'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text != "25" {
		t.Errorf("lookup = %+v", rs)
	}
	// Back to statements.
	back, err := TableToStatementsBack(spo)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(stmts) {
		t.Fatalf("round trip = %d statements, want %d", len(back), len(stmts))
	}
	g1, g2 := rdf.NewGraph(), rdf.NewGraph()
	if _, err := g1.AddAll(stmts); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.AddAll(back); err != nil {
		t.Fatal(err)
	}
	for _, s := range g1.All() {
		if !g2.Has(s) {
			t.Errorf("lost statement %s", s)
		}
	}
}

func TestStatementsToCSV(t *testing.T) {
	stmts := []rdf.Statement{
		{S: rdf.NewIRI("kb:p1"), P: rdf.NewIRI("kb:name"), O: rdf.NewLiteral("alice")},
	}
	var out strings.Builder
	if err := StatementsToCSV(&out, stmts); err != nil {
		t.Fatal(err)
	}
	want := "subject,predicate,object\nkb:p1,kb:name,alice\n"
	if out.String() != want {
		t.Errorf("csv = %q, want %q", out.String(), want)
	}
}

func TestFullConversionCycle(t *testing.T) {
	// CSV -> table -> RDF -> table -> CSV preserves the data (modulo
	// type stringification).
	db, tab := importedTable(t)
	stmts, err := TableToStatements(tab, "id", "kb:")
	if err != nil {
		t.Fatal(err)
	}
	spo, err := StatementsToTable(db, "spo", stmts)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := spo.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kb:p1,kb:name,alice", "kb:p2,kb:age,25", "kb:p3,kb:age,35"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("cycle output missing %q:\n%s", want, out.String())
		}
	}
}
