package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// claimRow is one row of EXPERIMENTS.md's claim → home table.
type claimRow struct {
	id, home, benchmark, notes string
}

// claimRows parses EXPERIMENTS.md's claim → home table, failing the test
// on a malformed row.
func claimRows(t *testing.T) []claimRow {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| ID | Claim | Home | Benchmark | Notes |"
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q table", header)
	}
	id := regexp.MustCompile(`^\| ((?:E|A)\d+) \|`)
	var rows []claimRow
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break // the table ends at its first non-row line
		}
		m := id.FindStringSubmatch(line)
		if m == nil {
			continue // the |---| separator
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Errorf("%s: %d cells, want ID | Claim | Home | Benchmark | Notes", m[1], len(cells))
			continue
		}
		rows = append(rows, claimRow{
			id:        m[1],
			home:      strings.TrimSpace(cells[2]),
			benchmark: strings.TrimSpace(cells[3]),
			notes:     strings.TrimSpace(cells[4]),
		})
	}
	return rows
}

// function matches a cell naming a Go function in a package directory:
// `dir` `Name`.
var function = regexp.MustCompile("^`([^`]+)` `([A-Za-z0-9_]+)`$")

// TestExperimentHomes holds EXPERIMENTS.md's claim → home table to the
// code: every one of E1–E22 and A1–A4 has exactly one row, and each row's
// home names a package directory that declares that Test function in one
// of its _test.go files.
func TestExperimentHomes(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range claimRows(t) {
		if seen[r.id] {
			t.Errorf("%s has more than one row", r.id)
		}
		seen[r.id] = true
		m := function.FindStringSubmatch(r.home)
		if m == nil || !strings.HasPrefix(m[2], "Test") {
			t.Errorf("%s: home %q, want `package/dir` `TestName`", r.id, r.home)
			continue
		}
		if !declares(t, m[1], m[2]) {
			t.Errorf("%s: no _test.go file in %s declares func %s", r.id, m[1], m[2])
		}
	}
	for _, prefix := range []struct {
		p string
		n int
	}{{"E", 22}, {"A", 4}} {
		for i := 1; i <= prefix.n; i++ {
			if id := fmt.Sprintf("%s%d", prefix.p, i); !seen[id] {
				t.Errorf("%s has no row in EXPERIMENTS.md's claim → home table", id)
			}
		}
	}
}

// TestEveryExperimentHasABenchmark holds the table's Benchmark column to
// the code: every claim that states a speed ratio (E17–E20) names the
// in-package benchmark that measures it, every named benchmark is
// declared in its package directory, and every `make` target a row's
// notes point at exists in the Makefile.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	speedRatios := map[string]bool{"E17": true, "E18": true, "E19": true, "E20": true}
	target := regexp.MustCompile("`make ([a-z-]+)`")
	for _, r := range claimRows(t) {
		if r.benchmark == "—" {
			if speedRatios[r.id] {
				t.Errorf("%s states a speed ratio but names no benchmark", r.id)
			}
		} else if m := function.FindStringSubmatch(r.benchmark); m == nil || !strings.HasPrefix(m[2], "Benchmark") {
			t.Errorf("%s: benchmark %q, want — or `package/dir` `BenchmarkName`", r.id, r.benchmark)
		} else if !declares(t, m[1], m[2]) {
			t.Errorf("%s: no _test.go file in %s declares func %s", r.id, m[1], m[2])
		}
		for _, m := range target.FindAllStringSubmatch(r.notes, -1) {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m[1]) + `:`).Match(makefile) {
				t.Errorf("%s: the Makefile has no %s target", r.id, m[1])
			}
		}
	}
}

// declares reports whether a _test.go file directly in dir declares a
// top-level function called name.
func declares(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(name) + `\(`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Match(src) {
			return true
		}
	}
	return false
}
