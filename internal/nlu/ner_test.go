package nlu

import (
	"testing"

	"repro/internal/lexicon"
)

func matchText(t *testing.T, text string) []Mention {
	t.Helper()
	m := newMatcher(lexicon.AllEntities())
	return m.Match(text, Tokenize(text))
}

func TestMatcherFindsCanonicalNames(t *testing.T) {
	mentions := matchText(t, "Germany signed a trade agreement with Japan.")
	if len(mentions) != 2 {
		t.Fatalf("mentions = %+v, want 2", mentions)
	}
	if mentions[0].EntityID != "country:de" || mentions[1].EntityID != "country:jp" {
		t.Errorf("mentions = %+v", mentions)
	}
	if mentions[0].Kind != "Country" {
		t.Errorf("Kind = %s, want Country", mentions[0].Kind)
	}
}

func TestMatcherLongestMatchWins(t *testing.T) {
	mentions := matchText(t, "The United States of America announced new tariffs.")
	if len(mentions) != 1 {
		t.Fatalf("mentions = %+v, want 1", mentions)
	}
	if mentions[0].Surface != "United States of America" || mentions[0].EntityID != "country:us" {
		t.Errorf("mention = %+v", mentions[0])
	}
}

func TestMatcherAliases(t *testing.T) {
	for _, alias := range []string{"USA", "America", "United States"} {
		mentions := matchText(t, "Exports to "+alias+" rose sharply.")
		if len(mentions) != 1 || mentions[0].EntityID != "country:us" {
			t.Errorf("alias %q: mentions = %+v", alias, mentions)
		}
	}
}

func TestMatcherAcronymCaseSensitive(t *testing.T) {
	// "US" the country requires exact case; the pronoun "us" must not
	// match.
	mentions := matchText(t, "They told us the US economy improved.")
	if len(mentions) != 1 {
		t.Fatalf("mentions = %+v, want exactly the capitalized US", mentions)
	}
	if mentions[0].Surface != "US" || mentions[0].EntityID != "country:us" {
		t.Errorf("mention = %+v", mentions[0])
	}
}

func TestMatcherCaseInsensitiveForLongNames(t *testing.T) {
	mentions := matchText(t, "exports from germany grew.")
	if len(mentions) != 1 || mentions[0].EntityID != "country:de" {
		t.Errorf("mentions = %+v, want lowercase germany to match", mentions)
	}
}

func TestMatcherCompanies(t *testing.T) {
	mentions := matchText(t, "Acme Corporation acquired Globex Industries for two billion.")
	if len(mentions) != 2 {
		t.Fatalf("mentions = %+v", mentions)
	}
	if mentions[0].EntityID != "company:acme" || mentions[1].EntityID != "company:globex" {
		t.Errorf("mentions = %+v", mentions)
	}
	if mentions[0].Kind != "Company" {
		t.Errorf("Kind = %s", mentions[0].Kind)
	}
}

func TestMatcherNoOverlaps(t *testing.T) {
	mentions := matchText(t, "Acme Corporation and Acme Corp and Acme all reported gains.")
	if len(mentions) != 3 {
		t.Fatalf("mentions = %+v, want 3", mentions)
	}
	for i := 1; i < len(mentions); i++ {
		if mentions[i].Start < mentions[i-1].End {
			t.Errorf("overlapping mentions: %+v", mentions)
		}
	}
}

func TestMatcherOffsetsSliceSource(t *testing.T) {
	text := "Officials in France praised the agreement."
	mentions := matchText(t, text)
	if len(mentions) != 1 {
		t.Fatalf("mentions = %+v", mentions)
	}
	if text[mentions[0].Start:mentions[0].End] != "France" {
		t.Errorf("offsets select %q", text[mentions[0].Start:mentions[0].End])
	}
}

func TestHeuristicMentions(t *testing.T) {
	text := "Yesterday Zorblax Dynamics unveiled a new engine."
	tokens := Tokenize(text)
	m := newMatcher(lexicon.AllEntities())
	covered := m.Match(text, tokens)
	hs := heuristicMentions(text, tokens, covered, lexicon.StopwordSet())
	if len(hs) != 1 {
		t.Fatalf("heuristic mentions = %+v, want 1", hs)
	}
	if hs[0].Surface != "Zorblax Dynamics" || hs[0].Kind != "Unknown" {
		t.Errorf("mention = %+v", hs[0])
	}
	if hs[0].EntityID != "unknown:zorblax dynamics" {
		t.Errorf("EntityID = %s", hs[0].EntityID)
	}
}

func TestHeuristicSkipsSentenceInitialSingles(t *testing.T) {
	text := "Revenue grew. Analysts cheered."
	tokens := Tokenize(text)
	hs := heuristicMentions(text, tokens, nil, lexicon.StopwordSet())
	if len(hs) != 0 {
		t.Errorf("sentence-initial words flagged as entities: %+v", hs)
	}
}

func TestHeuristicSkipsCoveredSpans(t *testing.T) {
	text := "Acme Corporation shares rose."
	tokens := Tokenize(text)
	m := newMatcher(lexicon.AllEntities())
	covered := m.Match(text, tokens)
	hs := heuristicMentions(text, tokens, covered, lexicon.StopwordSet())
	if len(hs) != 0 {
		t.Errorf("covered span re-reported: %+v", hs)
	}
}
