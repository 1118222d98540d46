package kb

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/remotestore"
)

const salesCSV = "country,year,revenue\nUSA,2024,100\nUnited States,2025,120\nAmerica,2026,140\nGermany,2024,80\nGermany,2025,90\n"

func newKB(t *testing.T, cfg Config) *KB {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestIngestAndSQL(t *testing.T) {
	k := newKB(t, Config{})
	if _, err := k.IngestCSV("sales", strings.NewReader(salesCSV)); err != nil {
		t.Fatal(err)
	}
	rs, err := k.SQL("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int != 5 {
		t.Errorf("COUNT = %v", rs.Rows[0][0])
	}
}

func TestIngestCSVFile(t *testing.T) {
	k := newKB(t, Config{})
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := k.IngestCSVFile("t", path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Errorf("rows = %d", tab.Len())
	}
}

func TestAddFactAndQuery(t *testing.T) {
	k := newKB(t, Config{})
	if err := k.AddFact("kb:acme", "kb:locatedIn", "country:us"); err != nil {
		t.Fatal(err)
	}
	if err := k.AddFact("kb:acme", "kb:motto", "move fast"); err != nil {
		t.Fatal(err)
	}
	res, err := k.Query("SELECT ?where WHERE { <kb:acme> <kb:locatedIn> ?where }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "country:us" || res.Rows[0][0].Kind != rdf.IRI {
		t.Errorf("rows = %v", res.Rows)
	}
	// Plain text object stays a literal.
	res, err = k.Query("SELECT ?m WHERE { <kb:acme> <kb:motto> ?m }")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Kind != rdf.Literal {
		t.Errorf("motto kind = %v, want literal", res.Rows[0][0].Kind)
	}
}

func TestCanonicalizeColumnCollapsesAliases(t *testing.T) {
	// The paper's proliferation example: USA / United States / America
	// must become one entity.
	k := newKB(t, Config{})
	if _, err := k.IngestCSV("sales", strings.NewReader(salesCSV)); err != nil {
		t.Fatal(err)
	}
	before, err := k.SQL("SELECT country, COUNT(*) FROM sales GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 4 { // USA, United States, America, Germany
		t.Fatalf("before groups = %d, want 4", len(before.Rows))
	}
	resolved, unresolved, err := k.CanonicalizeColumn("sales", "country")
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 4 || unresolved != 0 {
		t.Errorf("resolved/unresolved = %d/%d", resolved, unresolved)
	}
	after, err := k.SQL("SELECT country, COUNT(*) FROM sales GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 2 { // country:us, country:de
		t.Errorf("after groups = %d, want 2: %+v", len(after.Rows), after.Rows)
	}
	us, err := k.SQL("SELECT COUNT(*) FROM sales WHERE country = 'country:us'")
	if err != nil {
		t.Fatal(err)
	}
	if us.Rows[0][0].Int != 3 {
		t.Errorf("US rows = %v, want 3", us.Rows[0][0])
	}
}

func TestCanonicalizeColumnErrors(t *testing.T) {
	k := newKB(t, Config{})
	if _, err := k.IngestCSV("t", strings.NewReader("n\n1\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.CanonicalizeColumn("ghost", "n"); err == nil {
		t.Error("missing table accepted")
	}
	if _, _, err := k.CanonicalizeColumn("t", "ghost"); err == nil {
		t.Error("missing column accepted")
	}
	if _, _, err := k.CanonicalizeColumn("t", "n"); err == nil {
		t.Error("non-text column accepted")
	}
}

func TestSpellCheck(t *testing.T) {
	k := newKB(t, Config{})
	corrs := k.SpellCheck("The markte in Germny grew.")
	if len(corrs) != 2 {
		t.Fatalf("corrections = %+v", corrs)
	}
	if corrs[0].Suggestion != "market" || corrs[1].Suggestion != "germany" {
		t.Errorf("suggestions = %+v", corrs)
	}
}

func TestRegressAndSummarize(t *testing.T) {
	k := newKB(t, Config{})
	csv := "x,y\n1,10\n2,20\n3,30\n4,40\n"
	if _, err := k.IngestCSV("pts", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	m, err := k.Regress("pts", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if m.Slope < 9.99 || m.Slope > 10.01 {
		t.Errorf("slope = %v, want 10", m.Slope)
	}
	s, err := k.Summarize("pts", "y")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 25 || s.N != 4 {
		t.Errorf("summary = %+v", s)
	}
}

func TestFigure5LoopAnalyzeStoreInfer(t *testing.T) {
	// Ingest -> regression -> results as RDF -> user rule infers new
	// knowledge from the analysis results.
	k := newKB(t, Config{})
	csv := "year,revenue\n2022,100\n2023,110\n2024,121\n2025,133\n"
	if _, err := k.IngestCSV("growth", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	m, err := k.AnalyzeAndStore("growth", "year", "revenue", "kb:", []float64{2026})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slope <= 0 {
		t.Fatalf("slope = %v, want positive", m.Slope)
	}
	// The trend fact is in the graph.
	res, err := k.Query("SELECT ?a WHERE { ?a <kb:trend> \"increasing\" }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("trend facts = %v", res.Rows)
	}
	// User rule: increasing-trend analyses mark their table as growing.
	rule := rdf.Rule{
		Name: "growing-table",
		Premises: []rdf.Statement{
			{S: rdf.NewVar("a"), P: rdf.NewIRI("kb:trend"), O: rdf.NewLiteral("increasing")},
			{S: rdf.NewVar("a"), P: rdf.NewIRI("kb:table"), O: rdf.NewVar("t")},
		},
		Conclusions: []rdf.Statement{
			{S: rdf.NewVar("t"), P: rdf.NewIRI("kb:classifiedAs"), O: rdf.NewLiteral("growing")},
		},
	}
	if err := k.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	added, err := k.Infer()
	if err != nil {
		t.Fatal(err)
	}
	if added < 1 {
		t.Errorf("inference derived %d facts, want >= 1", added)
	}
	res, err = k.Query("SELECT ?t WHERE { ?t <kb:classifiedAs> \"growing\" }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "growth" {
		t.Errorf("classified = %v", res.Rows)
	}
	// Predictions are queryable.
	res, err = k.Query("SELECT ?p ?y WHERE { ?p <kb:ofAnalysis> <kb:analysis/growth/revenue> . ?p <kb:y> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("predictions = %v", res.Rows)
	}
}

func TestProveBackward(t *testing.T) {
	k := newKB(t, Config{})
	if err := k.AddFact("kb:dachshund", rdf.RDFSSubClassOf, "kb:dog"); err != nil {
		t.Fatal(err)
	}
	if err := k.AddFact("kb:dog", rdf.RDFSSubClassOf, "kb:animal"); err != nil {
		t.Fatal(err)
	}
	goal := rdf.Statement{
		S: rdf.NewIRI("kb:dachshund"),
		P: rdf.NewIRI(rdf.RDFSSubClassOf),
		O: rdf.NewIRI("kb:animal"),
	}
	bindings, err := k.Prove(goal)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) == 0 {
		t.Error("transitive goal not provable")
	}
}

func TestExports(t *testing.T) {
	dir := t.TempDir()
	k := newKB(t, Config{Dir: dir})
	if _, err := k.IngestCSV("sales", strings.NewReader(salesCSV)); err != nil {
		t.Fatal(err)
	}
	if err := k.AddFact("kb:a", "kb:p", "v"); err != nil {
		t.Fatal(err)
	}
	tp, err := k.ExportTableCSV("sales")
	if err != nil {
		t.Fatal(err)
	}
	gp, err := k.ExportGraphCSV("graph")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tp, gp} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Errorf("export %s unreadable: %v", p, err)
		}
	}
}

func TestSaveLoadLocalEncryptedCompressed(t *testing.T) {
	dir := t.TempDir()
	k := newKB(t, Config{Dir: dir, Passphrase: "kb secret", Compress: true})
	payload := []byte(strings.Repeat("private knowledge. ", 100))
	if err := k.SaveLocal("notes", payload); err != nil {
		t.Fatal(err)
	}
	// The on-disk form must be neither plaintext nor oversized.
	raw, err := os.ReadFile(filepath.Join(dir, "notes.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "private knowledge") {
		t.Error("plaintext on disk despite encryption")
	}
	if len(raw) >= len(payload) {
		t.Errorf("stored %d bytes for %d plaintext — compression ineffective", len(raw), len(payload))
	}
	got, err := k.LoadLocal("notes")
	if err != nil || string(got) != string(payload) {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestWrongPassphraseFails(t *testing.T) {
	dir := t.TempDir()
	k1 := newKB(t, Config{Dir: dir, Passphrase: "right"})
	if err := k1.SaveLocal("x", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	k2 := newKB(t, Config{Dir: dir, Passphrase: "wrong"})
	if _, err := k2.LoadLocal("x"); err == nil {
		t.Error("wrong passphrase decrypted")
	}
}

func TestRemoteSaveLoad(t *testing.T) {
	srv := remotestore.NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client, err := remotestore.NewCluster(remotestore.ClusterConfig{Nodes: []string{hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	k := newKB(t, Config{Remote: client})
	if err := k.SaveRemote("fact", []byte("cloud data")); err != nil {
		t.Fatal(err)
	}
	got, err := k.LoadRemote("fact")
	if err != nil || string(got) != "cloud data" {
		t.Errorf("LoadRemote = (%q, %v)", got, err)
	}
}

func TestRemoteUnconfigured(t *testing.T) {
	k := newKB(t, Config{})
	if err := k.SaveRemote("k", nil); err == nil {
		t.Error("SaveRemote without remote accepted")
	}
	if _, err := k.LoadRemote("k"); err == nil {
		t.Error("LoadRemote without remote accepted")
	}
}

func TestUserSynonymsFlowIntoCanonicalization(t *testing.T) {
	k := newKB(t, Config{})
	if _, err := k.disamb.LoadSynonyms(strings.NewReader("big blue,company:ibm\n")); err != nil {
		t.Fatal(err)
	}
	csv := "vendor,spend\nBig Blue,10\nbig blue,20\n"
	if _, err := k.IngestCSV("spend", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	resolved, _, err := k.CanonicalizeColumn("spend", "vendor")
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 2 {
		t.Errorf("resolved = %d, want 2", resolved)
	}
	rs, err := k.SQL("SELECT COUNT(*) FROM spend WHERE vendor = 'company:ibm'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int != 2 {
		t.Errorf("canonical rows = %v", rs.Rows[0][0])
	}
}

func TestAddRuleValidation(t *testing.T) {
	k := newKB(t, Config{})
	bad := rdf.Rule{
		Name:        "bad",
		Premises:    []rdf.Statement{{S: rdf.NewVar("x"), P: rdf.NewIRI("p"), O: rdf.NewVar("y")}},
		Conclusions: []rdf.Statement{{S: rdf.NewVar("z"), P: rdf.NewIRI("q"), O: rdf.NewVar("y")}},
	}
	if err := k.AddRule(bad); err == nil {
		t.Error("invalid rule accepted")
	}
}
