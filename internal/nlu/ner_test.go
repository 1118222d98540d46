package nlu

import "testing"

// noiseFree is a profile with no recall loss, no fabricated mentions, no
// capitalized-run heuristics and no sentiment noise: its analysis of a
// text is the text's gazetteer mentions, keywords, scores, concepts and
// relations, exact.
var noiseFree = Profile{Name: "nlu-noise-free"}

// analyze runs text through a noise-free engine.
func analyze(text string) Analysis { return NewEngine(noiseFree).Analyze(text) }

// heuristicMentions returns the Unknown entities a noise-free engine
// with capitalized-run heuristics finds in text: its mentions beside the
// gazetteer's.
func heuristicMentions(t *testing.T, text string) []Mention {
	t.Helper()
	p := noiseFree
	p.UseHeuristics = true
	var out []Mention
	for _, m := range NewEngine(p).Analyze(text).Entities {
		if m.Kind == "Unknown" {
			out = append(out, m)
		}
	}
	return out
}

func matchText(t *testing.T, text string) []Mention {
	t.Helper()
	return analyze(text).Entities
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
	hs := heuristicMentions(t, "Yesterday Zorblax Dynamics unveiled a new engine.")
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
	hs := heuristicMentions(t, "Revenue grew. Analysts cheered.")
	if len(hs) != 0 {
		t.Errorf("sentence-initial words flagged as entities: %+v", hs)
	}
}

func TestHeuristicSkipsCoveredSpans(t *testing.T) {
	hs := heuristicMentions(t, "Acme Corporation shares rose.")
	if len(hs) != 0 {
		t.Errorf("covered span re-reported: %+v", hs)
	}
}
