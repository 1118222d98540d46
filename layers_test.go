package repro_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// layer is one rung of internal/'s layer table: its name and its packages,
// as directories under internal/.
type layer struct {
	name string
	pkgs []string
}

// layers is internal/'s layer table, bottom first. A package's non-test
// files may import packages of its own layer or of lower ones, never of a
// higher one. The store layer sits below core, so the personal KB and the
// store gateway link no part of the SDK's chain.
var layers = []layer{
	{"foundation", []string{"cache", "clock", "future", "intern", "metrics", "plainjson", "plainjson/plaintest", "raceflag", "service", "stats", "trace", "xrand"}},
	{"failover/predict/rank", []string{"failover", "predict", "rank"}},
	{"substrates", []string{"aggregate", "csvconv", "lexicon", "nlu", "nlu/nluref", "rdbms", "rdf", "rdf/rdfref", "search", "search/searchref", "simsvc", "spell", "vision", "webcorpus"}},
	{"store", []string{"codec", "kvstore", "remotestore", "ring"}},
	{"core", []string{"core"}},
	{"kb/docstore/pipeline", []string{"docstore", "kb", "pipeline"}},
	{"harness", []string{"experiments", "integration", "loadgen"}},
}

// checkLayers holds an import graph (package → the internal/ packages its
// non-test files import, all as directories under internal/) to a layer
// table. It returns one line per import of a higher layer, per package
// the table does not list, and per table entry that is no package.
func checkLayers(graph map[string][]string, table []layer) []string {
	rank := map[string]int{}
	var problems []string
	for i, l := range table {
		for _, p := range l.pkgs {
			rank[p] = i
			if _, ok := graph[p]; !ok {
				problems = append(problems, fmt.Sprintf("layer %s lists internal/%s, which is no package: drop it", l.name, p))
			}
		}
	}
	pkgs := make([]string, 0, len(graph))
	for p := range graph {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		i, ok := rank[p]
		if !ok {
			problems = append(problems, fmt.Sprintf("internal/%s is in no layer: add it to the table", p))
			continue
		}
		for _, q := range graph[p] {
			if j, ok := rank[q]; ok && j > i {
				problems = append(problems, fmt.Sprintf("internal/%s (%s) imports internal/%s (%s), a higher layer", p, table[i].name, q, table[j].name))
			}
		}
	}
	return problems
}

// TestLayers holds the non-test imports of every internal/ package to the
// layer table. A directory under internal/ with any Go file is a package.
func TestLayers(t *testing.T) {
	graph := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(p)), "internal/")
		imports := graph[pkg]
		if !strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if q, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/internal/"); ok && !slices.Contains(imports, q) {
					imports = append(imports, q)
				}
			}
		}
		graph[pkg] = imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkLayers(graph, layers) {
		t.Error(p)
	}
	for _, l := range layers {
		t.Logf("%s: %s", l.name, strings.Join(l.pkgs, " "))
	}
}

// TestLayerCheck runs checkLayers on an in-memory graph: an import of a
// lower layer and of the package's own layer pass; an upward import, a
// package the table does not list and a table entry that is no package
// are each reported.
func TestLayerCheck(t *testing.T) {
	table := []layer{
		{"low", []string{"a", "b"}},
		{"high", []string{"c", "gone"}},
	}
	graph := map[string][]string{
		"a": {"b", "c"},
		"b": nil,
		"c": {"a", "b"},
		"d": {"a"},
	}
	got := strings.Join(checkLayers(graph, table), "\n")
	want := strings.Join([]string{
		"layer high lists internal/gone, which is no package: drop it",
		"internal/a (low) imports internal/c (high), a higher layer",
		"internal/d is in no layer: add it to the table",
	}, "\n")
	if got != want {
		t.Errorf("problems\n%s\nwant\n%s", got, want)
	}
}
