package rdbms

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ImportCSV reads CSV with a header row into a new table, inferring column
// types from the data: a column where every non-empty cell parses as an
// integer becomes INT, else FLOAT if numeric, else BOOL if boolean, else
// TEXT. This is the knowledge base's "data in CSV files can be added to a
// relational database table" conversion.
func (db *DB) ImportCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("rdbms: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("rdbms: csv for %q has no header", name)
	}
	header := records[0]
	body := records[1:]
	schema := make(Schema, len(header))
	for ci, col := range header {
		schema[ci] = Column{Name: col, Type: inferType(body, ci)}
	}
	t, err := db.Create(name, schema)
	if err != nil {
		return nil, err
	}
	for ri, rec := range body {
		row := make(Row, len(schema))
		for ci := range schema {
			v, err := coerce(rec[ci], schema[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("rdbms: csv row %d: %w", ri+2, err)
			}
			row[ci] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, fmt.Errorf("rdbms: csv row %d: %w", ri+2, err)
		}
	}
	return t, nil
}

func inferType(body [][]string, ci int) Type {
	sawAny := false
	isInt, isFloat, isBool := true, true, true
	for _, rec := range body {
		if ci >= len(rec) || rec[ci] == "" {
			continue
		}
		sawAny = true
		cell := rec[ci]
		if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			isFloat = false
		}
		if _, err := strconv.ParseBool(cell); err != nil {
			isBool = false
		}
	}
	switch {
	case !sawAny:
		return TypeText
	case isInt:
		return typeInt
	case isFloat:
		return typeFloat
	case isBool:
		return typeBool
	default:
		return TypeText
	}
}

// ExportCSV writes the table as CSV with a header row — the knowledge
// base's export path to MATLAB, Excel, Python, and R (paper §3).
func (t *Table) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	schema := t.Schema()
	header := make([]string, len(schema))
	for i, c := range schema {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("rdbms: write header: %w", err)
	}
	for _, row := range t.Rows() {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("rdbms: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("rdbms: flush: %w", err)
	}
	return nil
}
