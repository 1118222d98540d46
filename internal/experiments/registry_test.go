package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestRegistryComplete holds this package's claim tests to EXPERIMENTS.md:
// every Test<ID>…Shape declared here is the home its claim's row names.
// (The root TestExperimentHomes checks the other direction: every home
// the table names is declared.)
func TestRegistryComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	homed := map[string]string{} // claim ID → test named as its home here
	row := regexp.MustCompile("(?m)^\\| ((?:E|A)\\d+) \\|[^|]*\\| `internal/experiments` `(Test[A-Za-z0-9_]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		homed[m[1]] = m[2]
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	claimTest := regexp.MustCompile(`(?m)^func (Test((?:E|A)\d+)[A-Za-z0-9]*Shape)\(`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range claimTest.FindAllStringSubmatch(string(src), -1) {
			if homed[m[2]] != m[1] {
				t.Errorf("%s is not the home EXPERIMENTS.md names for %s (%q)", m[1], m[2], homed[m[2]])
			}
		}
	}
}
