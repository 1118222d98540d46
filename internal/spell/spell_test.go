package spell

import (
	"context"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/service"
)

func newChecker() *Checker {
	return NewChecker(lexicon.Dictionary(), map[string]int{"market": 100, "made": 50})
}

func TestKnownWordsPassThrough(t *testing.T) {
	c := newChecker()
	for _, w := range []string{"market", "economy", "Germany", "GOOD"} {
		if !c.known(w) {
			t.Errorf("Known(%q) = false", w)
		}
		got, ok := c.correct(w)
		if !ok || got != lower(w) {
			t.Errorf("Correct(%q) = (%q, %v)", w, got, ok)
		}
	}
}

func lower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		out[i] = b
	}
	return string(out)
}

func TestCorrectEditDistance1(t *testing.T) {
	c := newChecker()
	tests := []struct{ in, want string }{
		{"marke", "market"},   // delete
		{"markte", "market"},  // transpose
		{"merket", "market"},  // replace
		{"markett", "market"}, // insert
	}
	for _, tt := range tests {
		got, ok := c.correct(tt.in)
		if !ok || got != tt.want {
			t.Errorf("Correct(%q) = (%q, %v), want %q", tt.in, got, ok, tt.want)
		}
	}
}

func TestCorrectEditDistance2(t *testing.T) {
	c := newChecker()
	got, ok := c.correct("marrkte") // two edits from market
	if !ok || got != "market" {
		t.Errorf("Correct(marrkte) = (%q, %v), want market", got, ok)
	}
}

func TestCorrectHopeless(t *testing.T) {
	c := newChecker()
	if got, ok := c.correct("zzzzqqqqxxxx"); ok {
		t.Errorf("Correct(gibberish) = %q, want no candidate", got)
	}
}

func TestCorrectPrefersFrequent(t *testing.T) {
	// "mare" is distance-1 from both "made" (freq 50) and "mark"... use
	// explicit small dictionary to control.
	c := NewChecker([]string{"cat", "car"}, map[string]int{"car": 10, "cat": 1})
	got, ok := c.correct("caz")
	if !ok || got != "car" {
		t.Errorf("Correct(caz) = (%q, %v), want car (more frequent)", got, ok)
	}
}

func TestCorrectDeterministicTieBreak(t *testing.T) {
	c := NewChecker([]string{"bat", "cat"}, nil) // equal freq
	got, ok := c.correct("aat")
	if !ok || got != "bat" {
		t.Errorf("Correct(aat) = (%q, %v), want bat (alphabetical tie-break)", got, ok)
	}
}

func TestCheckFlagsMisspellings(t *testing.T) {
	c := newChecker()
	text := "The markte grew while the economy improved."
	corrs := c.Check(text)
	if len(corrs) != 1 {
		t.Fatalf("corrections = %+v, want 1", corrs)
	}
	if corrs[0].Word != "markte" || corrs[0].Suggestion != "market" {
		t.Errorf("correction = %+v", corrs[0])
	}
	if text[corrs[0].Offset:corrs[0].Offset+6] != "markte" {
		t.Errorf("offset %d wrong", corrs[0].Offset)
	}
}

func TestCheckSkipsNumbersAndShort(t *testing.T) {
	c := newChecker()
	corrs := c.Check("In 2026 a 42 x grew")
	for _, corr := range corrs {
		if corr.Word == "2026" || corr.Word == "42" || corr.Word == "x" || corr.Word == "a" {
			t.Errorf("flagged %q", corr.Word)
		}
	}
}

func TestCheckCleanText(t *testing.T) {
	c := newChecker()
	if corrs := c.Check("The market and the economy improved."); len(corrs) != 0 {
		t.Errorf("clean text flagged: %+v", corrs)
	}
}

func TestServiceAdapter(t *testing.T) {
	c := newChecker()
	svc := c.Service(service.Info{Name: "spell-remote", Category: "spell"})
	resp, err := svc.Invoke(context.Background(), service.Request{Op: "spellcheck", Text: "the markte"})
	if err != nil {
		t.Fatal(err)
	}
	corrs, err := DecodeCorrections(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 1 || corrs[0].Suggestion != "market" {
		t.Errorf("corrections = %+v", corrs)
	}
}

func TestServiceBadOp(t *testing.T) {
	svc := newChecker().Service(service.Info{Name: "s", Category: "spell"})
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "translate"}); err == nil {
		t.Error("expected error for unknown op")
	}
}

func TestSize(t *testing.T) {
	if newChecker().Size() < 400 {
		t.Errorf("Size = %d, want >= 400", newChecker().Size())
	}
}
