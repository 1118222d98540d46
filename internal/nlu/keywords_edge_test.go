package nlu

// Edge-case coverage for extractKeywords and extractConcepts, asserted
// against both the live package and the frozen nluref reference so the
// string-based helpers and the engines' interned path can never
// drift apart on the boundaries: all-stopword documents, k=0, and the
// deterministic alphabetical tie-break.

import (
	"reflect"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/nlu/nluref"
)

// keywordsBoth runs both implementations over the same text and fails if
// they disagree, returning the live result.
func keywordsBoth(t *testing.T, text string, k int) []Keyword {
	t.Helper()
	stop := lexicon.StopwordSet()
	got := extractKeywords(Tokenize(text), stop, k)
	refRaw := nluref.ExtractKeywords(nluref.Tokenize(text), stop, k)
	ref := make([]Keyword, len(refRaw))
	for i, kw := range refRaw {
		ref[i] = Keyword(kw)
	}
	if len(refRaw) == 0 {
		ref = nil
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("keyword divergence for %q k=%d:\n got %+v\n ref %+v", text, k, got, ref)
	}
	return got
}

func conceptsBoth(t *testing.T, text string, k int) []Concept {
	t.Helper()
	tokens := Tokenize(text)
	got := extractConcepts(tokens, nil, k)
	refRaw := nluref.ExtractConcepts(nluref.Tokenize(text), nil, k)
	ref := make([]Concept, len(refRaw))
	for i, c := range refRaw {
		ref[i] = Concept(c)
	}
	if len(refRaw) == 0 {
		ref = nil
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("concept divergence for %q k=%d:\n got %+v\n ref %+v", text, k, got, ref)
	}
	return got
}

func TestExtractKeywordsAllStopwords(t *testing.T) {
	if got := keywordsBoth(t, "the and of with from they were been", 10); got != nil {
		t.Errorf("all-stopword doc produced keywords: %+v", got)
	}
}

func TestExtractKeywordsShortAndNumericOnly(t *testing.T) {
	if got := keywordsBoth(t, "a an 42 7 99 xy z 2026", 10); got != nil {
		t.Errorf("short/numeric doc produced keywords: %+v", got)
	}
}

func TestExtractKeywordsZeroK(t *testing.T) {
	if got := keywordsBoth(t, "markets rallied strongly today", 0); got != nil {
		t.Errorf("k=0 produced keywords: %+v", got)
	}
	if got := keywordsBoth(t, "markets rallied strongly today", -3); got != nil {
		t.Errorf("k<0 produced keywords: %+v", got)
	}
}

func TestExtractKeywordsTieBreakAlphabetical(t *testing.T) {
	// Every content word appears exactly once: scores tie everywhere, so
	// the ordering must be purely alphabetical.
	got := keywordsBoth(t, "zebra apple mango kiwi banana", 10)
	want := []string{"apple", "banana", "kiwi", "mango", "zebra"}
	texts := make([]string, len(got))
	for i, kw := range got {
		texts[i] = kw.Text
	}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tie-break order = %v, want %v", texts, want)
	}
}

func TestExtractKeywordsTruncationAfterSort(t *testing.T) {
	// "alpha..." words appear twice, the rest once; k=2 must keep the two
	// doubled words, not the first two seen.
	got := keywordsBoth(t, "zulu yankee xray alphaone alphaone alphatwo alphatwo", 2)
	if len(got) != 2 || got[0].Text != "alphaone" || got[1].Text != "alphatwo" {
		t.Errorf("top-2 = %+v", got)
	}
	if got[0].Count != 2 || got[1].Count != 2 {
		t.Errorf("counts = %+v", got)
	}
}

func TestExtractConceptsEmptyAndZeroK(t *testing.T) {
	if got := conceptsBoth(t, "plain words without any taxonomy triggers", 5); got != nil {
		t.Errorf("topicless doc produced concepts: %+v", got)
	}
	if got := conceptsBoth(t, "technology market climate", 0); got != nil {
		t.Errorf("k=0 produced concepts: %+v", got)
	}
}

func TestExtractConceptsTieBreakAlphabetical(t *testing.T) {
	// One vote each for /economics (trade), /finance (market), and
	// /technology (software): equal confidence 1.0, alphabetical order.
	got := conceptsBoth(t, "trade market software", 5)
	want := []string{"/economics", "/finance", "/technology"}
	labels := make([]string, len(got))
	for i, c := range got {
		labels[i] = c.Label
		if c.Confidence != 1.0 {
			t.Errorf("confidence for %s = %v, want 1.0", c.Label, c.Confidence)
		}
	}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("tie-break order = %v, want %v", labels, want)
	}
}

func TestExtractConceptsMentionKindVotes(t *testing.T) {
	tokens := Tokenize("nothing topical here")
	mentions := []Mention{
		{EntityID: "country:de", Kind: "Country"},
		{EntityID: "company:acme", Kind: "Company"},
		{EntityID: "country:fr", Kind: "Country"},
	}
	got := extractConcepts(tokens, mentions, 5)
	refRaw := nluref.ExtractConcepts(nluref.Tokenize("nothing topical here"), []nluref.Mention{
		{EntityID: "country:de", Kind: "Country"},
		{EntityID: "company:acme", Kind: "Company"},
		{EntityID: "country:fr", Kind: "Country"},
	}, 5)
	if len(got) != len(refRaw) {
		t.Fatalf("len %d != ref %d", len(got), len(refRaw))
	}
	for i := range got {
		if got[i] != Concept(refRaw[i]) {
			t.Fatalf("concept %d: %+v != %+v", i, got[i], refRaw[i])
		}
	}
	if len(got) != 2 || got[0].Label != "/geography/countries" || got[0].Confidence != 1.0 {
		t.Errorf("concepts = %+v", got)
	}
	if got[1].Label != "/business/companies" || got[1].Confidence != 0.5 {
		t.Errorf("concepts = %+v", got)
	}
}
