// Package csvconv implements the personalized knowledge base's format
// conversions (paper §3): relational rows into RDF statements, statements
// into a subject/predicate/object table (and back), and statements into
// CSV; CSV into tables is rdbms's ImportCSV. "The ability to convert data
// between different formats is a key property of our personalized
// knowledge base."
package csvconv

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/rdbms"
	"repro/internal/rdf"
)

// TableToStatements converts each table row into RDF statements: the
// subject is ns + the row's value in subjectCol, and every other column
// becomes one predicate with the cell value as a literal object. NULL cells
// produce no statement, and nor does a row whose subject is NULL. A value
// is written as its column's type renders it, so a table that rdbms
// ImportCSV typed gives "01" back as 1, "1.50" as 1.5 and "TRUE" as true.
func TableToStatements(t *rdbms.Table, subjectCol, ns string) ([]rdf.Statement, error) {
	schema := t.Schema()
	si := schema.Index(subjectCol)
	if si < 0 {
		return nil, fmt.Errorf("csvconv: no subject column %q", subjectCol)
	}
	var out []rdf.Statement
	for _, row := range t.Rows() {
		if row[si].Null {
			continue
		}
		subject := rdf.NewIRI(ns + row[si].String())
		for ci, col := range schema {
			if ci == si || row[ci].Null {
				continue
			}
			out = append(out, rdf.Statement{
				S: subject,
				P: rdf.NewIRI(ns + col.Name),
				O: rdf.NewLiteral(row[ci].String()),
			})
		}
	}
	return out, nil
}

// StatementsToTable materializes statements as a three-column relational
// table (subject, predicate, object) — the paper's "a Jena statement can be
// added to a MySQL table".
func StatementsToTable(db *rdbms.DB, name string, stmts []rdf.Statement) (*rdbms.Table, error) {
	t, err := db.Create(name, rdbms.Schema{
		{Name: "subject", Type: rdbms.TypeText},
		{Name: "predicate", Type: rdbms.TypeText},
		{Name: "object", Type: rdbms.TypeText},
	})
	if err != nil {
		return nil, err
	}
	for _, s := range stmts {
		row := rdbms.Row{
			rdbms.TextV(s.S.Value),
			rdbms.TextV(s.P.Value),
			rdbms.TextV(s.O.Value),
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TableToStatementsBack converts a three-column (subject, predicate,
// object) table back into statements, inverting StatementsToTable. Objects
// are rebuilt as literals; subjects and predicates as IRIs.
func TableToStatementsBack(t *rdbms.Table) ([]rdf.Statement, error) {
	schema := t.Schema()
	si, pi, oi := schema.Index("subject"), schema.Index("predicate"), schema.Index("object")
	if si < 0 || pi < 0 || oi < 0 {
		return nil, fmt.Errorf("csvconv: table %s lacks subject/predicate/object columns", t.Name())
	}
	var out []rdf.Statement
	for _, row := range t.Rows() {
		out = append(out, rdf.Statement{
			S: rdf.NewIRI(row[si].String()),
			P: rdf.NewIRI(row[pi].String()),
			O: rdf.NewLiteral(row[oi].String()),
		})
	}
	return out, nil
}

// StatementsToCSV writes statements as subject,predicate,object CSV.
func StatementsToCSV(w io.Writer, stmts []rdf.Statement) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"subject", "predicate", "object"}); err != nil {
		return fmt.Errorf("csvconv: write header: %w", err)
	}
	for _, s := range stmts {
		if err := cw.Write([]string{s.S.Value, s.P.Value, s.O.Value}); err != nil {
			return fmt.Errorf("csvconv: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csvconv: flush: %w", err)
	}
	return nil
}
