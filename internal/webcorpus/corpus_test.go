package webcorpus

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/nlu"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42, NumDocs: 20})
	b := Generate(Config{Seed: 42, NumDocs: 20})
	if !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Error("same seed produced different corpora")
	}
	c := Generate(Config{Seed: 43, NumDocs: 20})
	same := 0
	for i := range a.Docs {
		if a.Docs[i].Body == c.Docs[i].Body {
			same++
		}
	}
	if same == len(a.Docs) {
		t.Error("different seeds produced identical corpora")
	}
}

// TestGenerateDigest pins the generator's output: an FNV-64 over every
// field of every Document of a 2 000-document seed-1 corpus. The search,
// analysis and KB oracles all read corpora built from these defaults, so a
// change that moves this constant moves them too.
func TestGenerateDigest(t *testing.T) {
	const want uint64 = 0x872cd3a3d31dc47
	c := Generate(Config{Seed: 1, NumDocs: 2000})
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, d := range c.Docs {
		str(d.ID)
		str(d.URL)
		str(d.Title)
		str(d.Body)
		str(d.Kind)
		u64(uint64(d.Published.UnixNano()))
		str(d.Published.Location().String())
		u64(uint64(len(d.TrueEntities)))
		for _, e := range d.TrueEntities {
			str(e)
		}
		ids := make([]string, 0, len(d.TruePolarity))
		for id := range d.TruePolarity {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		u64(uint64(len(ids)))
		for _, id := range ids {
			str(id)
			u64(math.Float64bits(d.TruePolarity[id]))
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("corpus digest over %d documents %#x, want %#x", c.Len(), got, want)
	}
}

func TestGenerateDefaults(t *testing.T) {
	c := Generate(Config{Seed: 1})
	if c.Len() != 200 {
		t.Errorf("Len = %d, want 200", c.Len())
	}
	d := c.Docs[0]
	if !strings.HasPrefix(d.URL, "http://web.local/docs/") {
		t.Errorf("URL = %s", d.URL)
	}
	if d.Published.IsZero() {
		t.Error("zero Published")
	}
}

func TestGroundTruthEntitiesAppearInBody(t *testing.T) {
	c := Generate(Config{Seed: 7, NumDocs: 50})
	byID := lexicon.ByID()
	for _, d := range c.Docs {
		if len(d.TrueEntities) == 0 {
			t.Fatalf("doc %s has no true entities", d.ID)
		}
		for _, id := range d.TrueEntities {
			e, ok := byID[id]
			if !ok {
				t.Fatalf("doc %s true entity %s not in gazetteer", d.ID, id)
			}
			found := false
			lower := strings.ToLower(d.Body)
			for _, s := range e.Surface() {
				if strings.Contains(lower, strings.ToLower(s)) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("doc %s claims %s but no surface form in body: %s", d.ID, id, d.Body)
			}
			if _, ok := d.TruePolarity[id]; !ok {
				t.Errorf("doc %s missing polarity for %s", d.ID, id)
			}
		}
	}
}

func TestGroundTruthPolarityDetectable(t *testing.T) {
	// An oracle-grade analyzer should recover the intended polarity sign
	// for a clear majority of non-neutral entities.
	c := Generate(Config{Seed: 11, NumDocs: 120})
	engine := nlu.NewEngine(nlu.Profile{Name: "oracle", Seed: 1})
	agree, total := 0, 0
	for _, d := range c.Docs {
		a := engine.Analyze(d.Body)
		scores := map[string]float64{}
		for _, es := range a.EntitySentiments {
			scores[es.EntityID] = es.Score
		}
		for id, pol := range d.TruePolarity {
			if pol == 0 {
				continue
			}
			got, ok := scores[id]
			if !ok {
				continue
			}
			total++
			if (pol > 0) == (got > 0) && got != 0 {
				agree++
			}
		}
	}
	if total < 50 {
		t.Fatalf("only %d scored entities, generation too sparse", total)
	}
	frac := float64(agree) / float64(total)
	if frac < 0.8 {
		t.Errorf("polarity agreement = %.2f, want >= 0.8", frac)
	}
}

func TestCorpusLookups(t *testing.T) {
	c := Generate(Config{Seed: 3, NumDocs: 10})
	d := c.Docs[4]
	got, ok := c.byID[d.ID]
	if !ok || got.ID != d.ID {
		t.Errorf("byID failed for %s", d.ID)
	}
	if _, ok := c.byID["nope"]; ok {
		t.Error("byID[nope] = true")
	}
}

func TestKindsDistribution(t *testing.T) {
	c := Generate(Config{Seed: 5, NumDocs: 200})
	counts := map[string]int{}
	for _, d := range c.Docs {
		counts[d.Kind]++
	}
	for _, k := range []string{"news", "blog", "reference"} {
		if counts[k] == 0 {
			t.Errorf("no %s documents generated", k)
		}
	}
	if counts["news"] <= counts["blog"] {
		t.Errorf("news (%d) should dominate blog (%d)", counts["news"], counts["blog"])
	}
}

func TestRenderHTMLAndExtractText(t *testing.T) {
	c := Generate(Config{Seed: 9, NumDocs: 5})
	d := c.Docs[0]
	page := RenderHTML(d)
	if !strings.Contains(page, "<title>") || !strings.Contains(page, "<p>") {
		t.Error("HTML structure missing")
	}
	text := ExtractText(page)
	if strings.Contains(text, "<") || strings.Contains(text, ">") {
		t.Errorf("tags leaked into text: %s", text)
	}
	// Every body word should survive the HTML round trip.
	for _, w := range strings.Fields(d.Body)[:10] {
		if !strings.Contains(text, strings.Trim(w, ".,!?")) {
			t.Errorf("word %q lost in round trip", w)
		}
	}
}

func TestExtractTextStripsScriptAndEntities(t *testing.T) {
	in := `<html><head><script>var x = "<danger>";</script></head>` +
		`<body><p>A &amp; B</p><style>p { color: red }</style><p>C</p></body></html>`
	got := ExtractText(in)
	if strings.Contains(got, "danger") || strings.Contains(got, "color") {
		t.Errorf("script/style content leaked: %q", got)
	}
	if !strings.Contains(got, "A & B") || !strings.Contains(got, "C") {
		t.Errorf("content lost: %q", got)
	}
}

func TestHTTPServerServesCorpus(t *testing.T) {
	c := Generate(Config{Seed: 13, NumDocs: 8})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/docs/" + c.Docs[2].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), c.Docs[2].Title) {
		t.Error("served page missing title")
	}

	idx, err := http.Get(srv.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	idxBody, _ := io.ReadAll(idx.Body)
	if got := strings.Count(string(idxBody), "\n"); got != 8 {
		t.Errorf("index lines = %d, want 8", got)
	}

	missing, err := http.Get(srv.URL + "/docs/absent")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing doc status = %d, want 404", missing.StatusCode)
	}
}
