package csvconv

import (
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rdbms"
)

// FuzzCSVRoundTrip holds CSV → table → RDF → table → CSV to the input.
// The input decodes into a CSV with an id column and up to three more,
// over cells that are empty, integers with leading zeros, decimals,
// booleans in any case and text that needs quoting. It is imported
// (rdbms ImportCSV), converted to statements with id as the subject,
// stored as a subject/predicate/object table and exported as CSV; the
// export and the statements read back from that table (through
// StatementsToCSV) must both equal the model's CSV, which is the input up
// to the normalisation TableToStatements documents: one statement per
// non-empty cell of a row whose id is not empty, in row then column
// order, each cell as its column's inferred type renders it.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 3, 2, 0, 1, 6, 7, 14})
	f.Add([]byte{2, 5, 9, 9, 9, 0, 10, 11, 12, 3, 4, 5, 8, 13, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		header := append([]string{"id"}, csvColumns[:next()%4]...)
		records := [][]string{header}
		for r := int(next() % 9); r > 0; r-- {
			rec := make([]string, len(header))
			for c := range rec {
				rec[c] = csvCells[int(next())%len(csvCells)]
			}
			records = append(records, rec)
		}
		var in strings.Builder
		if err := csv.NewWriter(&in).WriteAll(records); err != nil {
			t.Fatal(err)
		}

		db := rdbms.NewDB()
		tab, err := db.ImportCSV("t", strings.NewReader(in.String()))
		if err != nil {
			t.Fatalf("import %q: %v", in.String(), err)
		}
		stmts, err := TableToStatements(tab, "id", "kb:")
		if err != nil {
			t.Fatal(err)
		}
		spo, err := StatementsToTable(db, "spo", stmts)
		if err != nil {
			t.Fatal(err)
		}
		back, err := TableToStatementsBack(spo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, stmts) {
			t.Fatalf("statements read back from the table differ:\n got %v\nwant %v", back, stmts)
		}

		want := [][]string{{"subject", "predicate", "object"}}
		for _, rec := range records[1:] {
			if rec[0] == "" {
				continue
			}
			for c := 1; c < len(header); c++ {
				if rec[c] != "" {
					want = append(want, []string{"kb:" + normalised(records, 0, rec[0]), "kb:" + header[c], normalised(records, c, rec[c])})
				}
			}
		}
		var wantCSV strings.Builder
		if err := csv.NewWriter(&wantCSV).WriteAll(want); err != nil {
			t.Fatal(err)
		}
		var table, statements strings.Builder
		if err := spo.ExportCSV(&table); err != nil {
			t.Fatal(err)
		}
		if err := StatementsToCSV(&statements, back); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]string{"table export": table.String(), "StatementsToCSV": statements.String()} {
			if got != wantCSV.String() {
				t.Errorf("input %q: %s\n got %q\nwant %q", in.String(), name, got, wantCSV.String())
			}
		}
	})
}

var csvColumns = []string{"name", "age", "flag"}

var csvCells = []string{"", "alice", "b c", "x,y", `say "hi"`, "01", "2", "-3", "1.50", "0.25", "TRUE", "false", "t", "1", "0"}

// normalised renders cell as its column ci's inferred type does: INT when
// every non-empty cell of the column parses as an integer, else FLOAT when
// every one parses as a number, else BOOL when every one parses as a
// boolean, else TEXT as written.
func normalised(records [][]string, ci int, cell string) string {
	isInt, isFloat, isBool := true, true, true
	for _, rec := range records[1:] {
		if rec[ci] == "" {
			continue
		}
		_, err := strconv.ParseInt(rec[ci], 10, 64)
		isInt = isInt && err == nil
		_, err = strconv.ParseFloat(rec[ci], 64)
		isFloat = isFloat && err == nil
		_, err = strconv.ParseBool(rec[ci])
		isBool = isBool && err == nil
	}
	switch {
	case isInt:
		n, _ := strconv.ParseInt(cell, 10, 64)
		return strconv.FormatInt(n, 10)
	case isFloat:
		x, _ := strconv.ParseFloat(cell, 64)
		return strconv.FormatFloat(x, 'g', -1, 64)
	case isBool:
		b, _ := strconv.ParseBool(cell)
		return strconv.FormatBool(b)
	}
	return cell
}
