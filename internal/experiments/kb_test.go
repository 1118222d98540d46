package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/csvconv"
	"repro/internal/failover"
	"repro/internal/kb"
	"repro/internal/kvstore"
	"repro/internal/lexicon"
	"repro/internal/rdbms"
	"repro/internal/rdf"
	"repro/internal/rdf/rdfref"
	"repro/internal/remotestore"
	"repro/internal/xrand"
)

func st(s, p, o string) rdf.Statement {
	return rdf.Statement{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

// E8: the RDF store infers new statements (Fig. 4/5, §3). A subclass
// chain of n classes with one instance at the bottom: the transitive and
// RDFS reasoners derive exactly the closure — the (n-1)(n-2)/2 missing
// subclass facts and n-1 type facts lifting the instance through every
// superclass.
func TestE8InferenceShape(t *testing.T) {
	prev := 0
	for _, n := range []int{10, 20, 40} {
		g := rdf.NewGraph()
		for i := 0; i < n-1; i++ {
			g.MustAdd(st(fmt.Sprintf("class:%03d", i), rdf.RDFSSubClassOf, fmt.Sprintf("class:%03d", i+1)))
		}
		g.MustAdd(st("item:leaf", rdf.RDFType, "class:000"))
		derived, err := rdf.ForwardChain(g, append(rdf.TransitiveRules(), rdf.RDFSRules()...), 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := (n-1)*(n-2)/2 + (n - 1); derived != want {
			t.Errorf("chain of %d classes derived %d facts, want %d", n, derived, want)
		}
		if derived <= prev {
			t.Errorf("chain of %d classes derived %d facts, not more than the shorter chain's %d", n, derived, prev)
		}
		prev = derived
	}
}

// E9: compress, then encrypt (§3). On 51 KB payloads gzip shrinks text
// below a third, AES-GCM adds a small constant, compress-then-encrypt
// keeps the compression, and random bytes (what ciphertext looks like) do
// not compress at all.
func TestE9CodecShape(t *testing.T) {
	aes, err := codec.NewAESGCM("key")
	if err != nil {
		t.Fatal(err)
	}
	const size = 51 * 1024
	pattern := []byte("knowledge base statement about markets and growth. ")
	text := bytes.Repeat(pattern, size/len(pattern)+1)[:size]
	random := make([]byte, size)
	rand.New(rand.NewSource(8)).Read(random)
	stored := func(c codec.Codec, data []byte) int {
		t.Helper()
		out, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := c.Decode(out); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("%T corrupted the payload: %v", c, err)
		}
		return len(out)
	}
	if n := stored(codec.Gzip{}, text); n >= size/3 {
		t.Errorf("gzip stores %d of %d text bytes, want under a third", n, size)
	}
	if n := stored(codec.Gzip{}, random); n < size {
		t.Errorf("gzip stores %d of %d random bytes: random data should not compress", n, size)
	}
	if over := stored(aes, text) - size; over < 0 || over > 64 {
		t.Errorf("AES-GCM adds %d bytes, want a small constant", over)
	}
	if n := stored(codec.Chain{codec.Gzip{}, aes}, text); n >= size/3 {
		t.Errorf("gzip+AES stores %d of %d text bytes, want under a third", n, size)
	}
}

// E11: local storage serves while disconnected and syncs after (§3). In
// offline windows of 20, 100 and 400 writes that rewrite half their keys,
// every written key reads back from the local mirror, the sync pushes at
// most one operation per write (superseded writes coalesce), and every
// key's last value reaches the remote node.
func TestE11OfflineSyncShape(t *testing.T) {
	for _, writes := range []int{20, 100, 400} {
		backing := kvstore.NewMemory()
		hs := httptest.NewServer(remotestore.NewServer(backing).Handler())
		t.Cleanup(hs.Close)
		cl, err := remotestore.NewCluster(remotestore.ClusterConfig{Nodes: []string{hs.URL}, Local: kvstore.NewMemory()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		cl.SetOffline(true)
		keys := writes / 2
		keyOf := func(i int) string { return fmt.Sprintf("k%04d", i%keys) }
		for i := 0; i < writes; i++ {
			if err := cl.Put(keyOf(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < keys; i++ {
			if _, err := cl.Get(keyOf(i)); err != nil {
				t.Errorf("%d offline writes: offline Get(%s): %v", writes, keyOf(i), err)
			}
		}
		pushed, err := cl.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if pushed > writes {
			t.Errorf("%d offline writes: synced %d operations", writes, pushed)
		}
		lost := 0
		for i := writes - keys; i < writes; i++ {
			if got, err := backing.Get(keyOf(i)); err != nil || string(got) != fmt.Sprintf("v%d", i) {
				lost++
			}
		}
		if lost != 0 {
			t.Errorf("%d offline writes: %d keys lost their last value", writes, lost)
		}
	}
}

// E12: data converts between CSV, relational and RDF without loss (§3).
// CSV -> table -> RDF -> table at 100 and 1 000 rows: two statements per
// row (name and score), and every one survives the way back.
func TestE12ConvertShape(t *testing.T) {
	for _, n := range []int{100, 1000} {
		var sb strings.Builder
		sb.WriteString("id,name,score\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "r%06d,item %d,%d\n", i, i, i%100)
		}
		db := rdbms.NewDB()
		tab, err := db.ImportCSV("data", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		stmts, err := csvconv.TableToStatements(tab, "id", "kb:")
		if err != nil {
			t.Fatal(err)
		}
		g := rdf.NewGraph()
		if _, err := g.AddAll(stmts); err != nil {
			t.Fatal(err)
		}
		back, err := csvconv.StatementsToTable(db, "spo", g.All())
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 2*n || back.Len() != g.Len() {
			t.Errorf("%d rows: %d statements, %d rows back; want %d each", n, g.Len(), back.Len(), 2*n)
		}
	}
}

// E13: canonical IDs stop alias proliferation (§3). 600 rows naming ten
// countries through random aliases: stored raw they proliferate into more
// "entities" than exist; canonicalized, exactly the ten remain.
func TestE13DisambigShape(t *testing.T) {
	countries := lexicon.Countries[:10]
	rng := xrand.New(13)
	var sb strings.Builder
	sb.WriteString("country,value\n")
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&sb, "%s,%d\n", xrand.Choice(rng, xrand.Choice(rng, countries).Surface()), i)
	}
	distinct := func(canonicalize bool) int {
		k, err := kb.New(kb.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.IngestCSV("facts", strings.NewReader(sb.String())); err != nil {
			t.Fatal(err)
		}
		if canonicalize {
			if _, _, err := k.CanonicalizeColumn("facts", "country"); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := k.SQL("SELECT country, COUNT(*) FROM facts GROUP BY country")
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	if raw := distinct(false); raw <= len(countries) {
		t.Errorf("raw ingestion stored %d distinct countries for %d true ones, want more", raw, len(countries))
	}
	if canon := distinct(true); canon != len(countries) {
		t.Errorf("canonicalized ingestion stored %d distinct countries, want %d", canon, len(countries))
	}
}

// E14: redundant stores keep data readable through outages (§2.1). Three
// store nodes each holding a full replica: every read succeeds with one
// and with two nodes down, and only a total outage loses them.
func TestE14RedundancyShape(t *testing.T) {
	const nodes, keys = 3, 50
	var urls []string
	var servers []*remotestore.Server
	for i := 0; i < nodes; i++ {
		srv := remotestore.NewServer(nil)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		urls, servers = append(urls, hs.URL), append(servers, srv)
	}
	cl, err := remotestore.NewCluster(remotestore.ClusterConfig{
		Nodes:    urls,
		Replicas: nodes,
		Seed:     1,
		Retry:    failover.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < keys; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	readsOK := func() (ok int) {
		for i := 0; i < keys; i++ {
			if got, err := cl.Get(fmt.Sprintf("k%d", i)); err == nil && string(got) == fmt.Sprintf("v%d", i) {
				ok++
			}
		}
		return ok
	}
	for down := 0; down <= nodes; down++ {
		if down > 0 {
			servers[down-1].SetDown(true)
		}
		want := keys
		if down == nodes {
			want = 0
		}
		if ok := readsOK(); ok != want {
			t.Errorf("%d of %d nodes down: %d/%d reads served, want %d", down, nodes, ok, keys, want)
		}
	}
}

// A4: backward chaining answers one query without materializing the
// closure. One ground query over a 60-class subclass chain: backward
// chaining proves it storing nothing, forward chaining materializes the
// whole closure first.
func TestA4ChainAblationShape(t *testing.T) {
	const n = 60
	build := func() *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < n-1; i++ {
			g.MustAdd(st(fmt.Sprintf("c%03d", i), rdf.RDFSSubClassOf, fmt.Sprintf("c%03d", i+1)))
		}
		return g
	}
	goal := st("c000", rdf.RDFSSubClassOf, fmt.Sprintf("c%03d", n-1))
	backward := build()
	if b, err := rdf.BackwardChain(backward, rdf.TransitiveRules(), goal, 2*n); err != nil || len(b) == 0 {
		t.Fatalf("backward chaining missed the goal: %v, %v", b, err)
	}
	forward := build()
	if _, err := rdf.ForwardChain(forward, rdf.TransitiveRules(), 0); err != nil || !forward.Has(goal) {
		t.Fatalf("forward chaining missed the goal: %v", err)
	}
	if backward.Len() != n-1 || forward.Len() != n*(n-1)/2 {
		t.Errorf("stored facts after the query: backward %d (want %d), forward %d (want %d)",
			backward.Len(), n-1, forward.Len(), n*(n-1)/2)
	}
}

// reachRules is the linear reachability rule set: on it semi-naive
// evaluation derives every fact exactly once.
func reachRules() []rdf.Rule {
	edge, reaches := rdf.NewIRI("edge"), rdf.NewIRI("reaches")
	x, y, z := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")
	return []rdf.Rule{
		{
			Name:        "reach-base",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: y}},
		},
		{
			Name:        "reach-step",
			Premises:    []rdf.Statement{{S: x, P: edge, O: y}, {S: y, P: reaches, O: z}},
			Conclusions: []rdf.Statement{{S: x, P: reaches, O: z}},
		},
	}
}

// E17: semi-naive chaining derives each fact once; the planner makes join
// order irrelevant (§3). Over linear chains naive and semi-naive
// evaluation reach the same C(n,2) closure, semi-naive firing one rule per
// fact and naive re-deriving earlier rounds; semi-naive alone goes on to
// a longer chain. A three-pattern join handed to the planner in its worst
// order returns the rows the order-sensitive baseline finds in both
// orders. `make bench-rdf` measures the speed side.
func TestE17InferenceScalingShape(t *testing.T) {
	chain := func(n int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < n-1; i++ {
			g.MustAdd(st(fmt.Sprintf("n%05d", i), "edge", fmt.Sprintf("n%05d", i+1)))
		}
		return g
	}
	for _, n := range []int{20, 80, 200} {
		semi, err := rdf.ForwardChainStats(chain(n), reachRules(), n+100)
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n - 1) / 2; semi.Derived != want {
			t.Errorf("chain %d: semi-naive derived %d facts, want %d", n, semi.Derived, want)
		}
		if semi.Derivations != semi.Derived {
			t.Errorf("chain %d: semi-naive fired %d rules for %d facts", n, semi.Derivations, semi.Derived)
		}
		if n > 80 {
			continue // naive evaluation re-derives the closure every round
		}
		naive, err := rdf.ForwardChainNaive(chain(n), reachRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Derived != semi.Derived {
			t.Errorf("chain %d: naive derived %d facts, semi-naive %d", n, naive.Derived, semi.Derived)
		}
		if naive.Derivations <= semi.Derivations {
			t.Errorf("chain %d: naive fired %d rules, semi-naive %d — no re-derivation saved", n, naive.Derivations, semi.Derivations)
		}
	}

	// People in a knows-ring, each with a type fact and one of ten
	// departments. Starting from the unselective type pattern is the
	// worst order, starting from the department pattern the best.
	const people = 600
	g, ref := rdf.NewGraph(), rdfref.New()
	for i := 0; i < people; i++ {
		p := rdf.NewIRI(fmt.Sprintf("person:%05d", i))
		for _, s := range []rdf.Statement{
			{S: p, P: rdf.NewIRI("knows"), O: rdf.NewIRI(fmt.Sprintf("person:%05d", (i+1)%people))},
			{S: p, P: rdf.NewIRI("rdf:type"), O: rdf.NewIRI("Person")},
			{S: p, P: rdf.NewIRI("dept"), O: rdf.NewIRI(fmt.Sprintf("dept:%d", i%10))},
		} {
			g.MustAdd(s)
			ref.MustAdd(s)
		}
	}
	a, b := rdf.NewVar("a"), rdf.NewVar("b")
	knows := rdf.Statement{S: a, P: rdf.NewIRI("knows"), O: b}
	dept := rdf.Statement{S: a, P: rdf.NewIRI("dept"), O: rdf.NewIRI("dept:3")}
	typ := rdf.Statement{S: b, P: rdf.NewIRI("rdf:type"), O: rdf.NewIRI("Person")}
	worst, best := []rdf.Statement{typ, knows, dept}, []rdf.Statement{dept, knows, typ}
	refWorst, refBest, planned := len(ref.Solve(worst)), len(ref.Solve(best)), len(g.Solve(worst))
	if refWorst != people/10 || refBest != refWorst || planned != refWorst {
		t.Errorf("join rows: baseline worst order %d, best order %d, planner handed the worst order %d; want %d each",
			refWorst, refBest, planned, people/10)
	}
}
