package nlu_test

// The equivalence oracle for the interned Engine.Analyze: nluref is the
// pre-interning implementation frozen verbatim, and every analysis here
// must come out bit-identical between the two packages — entities,
// keywords, sentiment floats, concepts, relations, field for field —
// across the three stock engine profiles, whose drop/spurious/noise
// paths consume randomness, and a noise-free one. Equality is asserted on
// the marshaled JSON, which distinguishes nil from empty slices and
// pins every float bit (encoding/json renders the shortest exact
// representation).
//
// The one deliberate divergence is multibyte tokenization, which nlu
// fixes and nluref preserves; the oracle corpus is ASCII, so it is not
// exercised here (tokenize_multibyte_test.go covers the fix), and
// FuzzAnalyzeMatchesReference holds the two equal on arbitrary ASCII.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nlu"
	"repro/internal/nlu/nluref"
	"repro/internal/webcorpus"
)

// oracleProfiles are the three stock profiles plus a noise-free one
// that keeps fewer keywords and concepts than the defaults.
var oracleProfiles = []struct {
	nu  nlu.Profile
	ref nluref.Profile
}{
	{nlu.ProfileAlpha, nluref.ProfileAlpha},
	{nlu.ProfileBeta, nluref.ProfileBeta},
	{nlu.ProfileGamma, nluref.ProfileGamma},
	{nlu.Profile{Name: "nlu-noise-free", MaxKeywords: 2, MaxConcepts: 1}, nluref.Profile{Name: "nlu-noise-free", MaxKeywords: 2, MaxConcepts: 1}},
}

// wordlessText has no word token, yet nlu-beta fabricates spurious
// mentions from its punctuation "sentences".
const wordlessText = "````.``!``,```'`"

// oracleTexts returns the generated document bodies plus hand-picked
// edge cases: empty-ish inputs, punctuation-only sentences (spurious
// mentions with no tokens), acronym case sensitivity, negation and
// intensification, multiword gazetteer surfaces, and relation triggers.
func oracleTexts(t *testing.T) []string {
	t.Helper()
	var texts []string
	for _, seed := range []int64{7, 99, 2026} {
		c := webcorpus.Generate(webcorpus.Config{Seed: seed, NumDocs: 40})
		for _, d := range c.Docs {
			texts = append(texts, d.Body)
			texts = append(texts, d.Title)
		}
	}
	texts = append(texts,
		"",
		"...",
		"!!! ??? ...",
		"#### $$$$ abc.",
		"The US praised Germany. But us and germany are lowercase.",
		"United States of America signed with United Kingdom yesterday.",
		"Acme Corp acquired Globex Corporation in a very good deal.",
		"This is not good. That was extremely bad! Hardly excellent?",
		"Word",
		"a b c d e f",
		"Alice visited Berlin. Berlin praised Alice. Alice praised Berlin.",
		"it's the people's republic of runners' code",
	)
	// Randomized word soup over a mixed alphabet of known and unknown
	// words stresses every counting path with out-of-vocabulary tokens.
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{
		"technology", "market", "Germany", "Acme", "excellent", "terrible",
		"not", "very", "acquired", "praised", "zzyzx", "Qwerty", "banana",
		"the", "of", "and", ".", "!", "?", "US", "united", "states",
	}
	for i := 0; i < 40; i++ {
		var s string
		for j := 0; j < 5+rng.Intn(60); j++ {
			if j > 0 {
				s += " "
			}
			s += alphabet[rng.Intn(len(alphabet))]
		}
		texts = append(texts, s)
	}
	if len(texts) < 100 {
		t.Fatalf("oracle corpus too small: %d texts", len(texts))
	}
	return texts
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestAnalyzeMatchesReference is the oracle: the interned Analyze must be
// bit-identical to the frozen reference on every text and every profile.
func TestAnalyzeMatchesReference(t *testing.T) {
	texts := oracleTexts(t)
	for _, p := range oracleProfiles {
		p := p
		t.Run(p.nu.Name, func(t *testing.T) {
			eng := nlu.NewEngine(p.nu)
			ref := nluref.NewEngine(p.ref)
			for i, text := range texts {
				got := mustJSON(t, eng.Analyze(text))
				want := mustJSON(t, ref.Analyze(text))
				if got != want {
					t.Fatalf("text %d diverged\ntext: %.120q\n got: %s\nwant: %s", i, text, got, want)
				}
			}
		})
	}
}

// TestAnalyzeWordlessText analyzes a text without word tokens on every
// profile. Relation extraction once looked up the token of a spurious
// mention in a document with no tokens and panicked with index -1,
// which took down the facade's goroutine that ran the service.
func TestAnalyzeWordlessText(t *testing.T) {
	for _, p := range oracleProfiles {
		a := nlu.NewEngine(p.nu).Analyze(wordlessText)
		if p.nu.Name == nlu.ProfileBeta.Name && len(a.Entities) < 2 {
			t.Errorf("%s: %d mentions, want the >= 2 spurious ones that reach relation extraction", p.nu.Name, len(a.Entities))
		}
		if len(a.Relations) != 0 {
			t.Errorf("%s: relations %+v in a text without words", p.nu.Name, a.Relations)
		}
		if got, want := mustJSON(t, a), mustJSON(t, nluref.NewEngine(p.ref).Analyze(wordlessText)); got != want {
			t.Errorf("%s diverged\n got: %s\nwant: %s", p.nu.Name, got, want)
		}
	}
}

// TestAnalyzeDeterministicAcrossCalls re-analyzes the same documents with
// the same engine: pooled scratch reuse must not leak state between
// documents.
func TestAnalyzeDeterministicAcrossCalls(t *testing.T) {
	texts := oracleTexts(t)[:50]
	eng := nlu.NewEngine(nlu.ProfileGamma)
	first := make([]string, len(texts))
	for i, text := range texts {
		first[i] = mustJSON(t, eng.Analyze(text))
	}
	// Second pass in reverse order so each document is preceded by
	// different pool contents than on the first pass.
	for i := len(texts) - 1; i >= 0; i-- {
		if again := mustJSON(t, eng.Analyze(texts[i])); again != first[i] {
			t.Fatalf("text %d changed between calls\nfirst: %s\nagain: %s", i, first[i], again)
		}
	}
}

// TestTokenizeMatchesReferenceOnASCII pins the public tokenizer to the
// frozen one wherever they are specified to agree (pure-ASCII input).
func TestTokenizeMatchesReferenceOnASCII(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, NumDocs: 30})
	for _, d := range c.Docs {
		got := nlu.Tokenize(d.Body)
		ref := nluref.Tokenize(d.Body)
		if len(got) != len(ref) {
			t.Fatalf("token count %d != %d for %.80q", len(got), len(ref), d.Body)
		}
		for i := range got {
			r := nlu.Token(ref[i])
			if !reflect.DeepEqual(got[i], r) {
				t.Fatalf("token %d: %+v != %+v", i, got[i], r)
			}
		}
	}
}

// TestAnalyzeConcurrent exercises the doc pool from many goroutines; run
// with -race this is the guard against scratch sharing bugs.
func TestAnalyzeConcurrent(t *testing.T) {
	texts := oracleTexts(t)[:40]
	eng := nlu.NewEngine(nlu.ProfileBeta)
	want := make([]string, len(texts))
	for i, text := range texts {
		want[i] = mustJSON(t, eng.Analyze(text))
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := range texts {
				j := (i + g) % len(texts)
				if got := mustJSON(t, eng.Analyze(texts[j])); got != want[j] {
					errc <- fmt.Errorf("goroutine %d text %d diverged", g, j)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
