package nlu

// Edge cases of the engine's keyword and concept extraction, each
// asserted on Engine.Analyze and checked against the frozen nluref
// engine with the same profile: all-stopword documents, the
// deterministic alphabetical tie-break, truncation to MaxKeywords after
// sorting, and concept votes from mention kinds.

import (
	"reflect"
	"testing"

	"repro/internal/nlu/nluref"
)

// bothEngines analyzes text with a noise-free profile keeping k keywords
// and k concepts, on the engine and on nluref, and fails unless the two
// agree on keywords and concepts. It returns the engine's analysis.
func bothEngines(t *testing.T, text string, k int) Analysis {
	t.Helper()
	p := noiseFree
	p.MaxKeywords, p.MaxConcepts = k, k
	got := NewEngine(p).Analyze(text)
	ref := nluref.NewEngine(nluref.Profile(p)).Analyze(text)
	refKws := make([]Keyword, len(ref.Keywords))
	for i, kw := range ref.Keywords {
		refKws[i] = Keyword(kw)
	}
	refCs := make([]Concept, len(ref.Concepts))
	for i, c := range ref.Concepts {
		refCs[i] = Concept(c)
	}
	if len(ref.Keywords) == 0 {
		refKws = nil
	}
	if len(ref.Concepts) == 0 {
		refCs = nil
	}
	if !reflect.DeepEqual(got.Keywords, refKws) {
		t.Fatalf("keyword divergence for %q k=%d:\n got %+v\n ref %+v", text, k, got.Keywords, refKws)
	}
	if !reflect.DeepEqual(got.Concepts, refCs) {
		t.Fatalf("concept divergence for %q k=%d:\n got %+v\n ref %+v", text, k, got.Concepts, refCs)
	}
	return got
}

func keywordsBoth(t *testing.T, text string, k int) []Keyword {
	t.Helper()
	return bothEngines(t, text, k).Keywords
}

func conceptsBoth(t *testing.T, text string, k int) []Concept {
	t.Helper()
	return bothEngines(t, text, k).Concepts
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

func TestExtractConceptsEmpty(t *testing.T) {
	if got := conceptsBoth(t, "plain words without any taxonomy triggers", 5); got != nil {
		t.Errorf("topicless doc produced concepts: %+v", got)
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
	// Two countries and a company, no topic words.
	a := bothEngines(t, "Germany, Acme Corporation and France.", 5)
	if len(a.Entities) != 3 {
		t.Fatalf("mentions = %+v, want 3", a.Entities)
	}
	got := a.Concepts
	if len(got) != 2 || got[0].Label != "/geography/countries" || got[0].Confidence != 1.0 {
		t.Errorf("concepts = %+v", got)
	}
	if got[1].Label != "/business/companies" || got[1].Confidence != 0.5 {
		t.Errorf("concepts = %+v", got)
	}
}
