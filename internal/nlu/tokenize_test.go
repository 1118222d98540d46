package nlu

import (
	"reflect"
	"testing"
)

func tokenTexts(ts []Token) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	tokens := Tokenize("The quick brown fox.")
	want := []string{"The", "quick", "brown", "fox"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "Acme won big."
	tokens := Tokenize(text)
	for _, tok := range tokens {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offsets wrong: [%d:%d] = %q, token %q", tok.Start, tok.End, text[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeSentenceBoundaries(t *testing.T) {
	tokens := Tokenize("First here. Second there! Third one?")
	var starts []string
	for _, tok := range tokens {
		if tok.SentenceStart {
			starts = append(starts, tok.Text)
		}
	}
	want := []string{"First", "Second", "Third"}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("sentence starts = %v, want %v", starts, want)
	}
}

func TestTokenizeApostrophes(t *testing.T) {
	tokens := Tokenize("It's the People's Republic")
	texts := tokenTexts(tokens)
	want := []string{"It's", "the", "People's", "Republic"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestTokenizeNumbersAndPunct(t *testing.T) {
	tokens := Tokenize("Revenue rose 42% in Q3, beating forecasts.")
	texts := tokenTexts(tokens)
	want := []string{"Revenue", "rose", "42", "in", "Q3", "beating", "forecasts"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("...!!!"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

func TestTokenizeLowerPrecomputed(t *testing.T) {
	tokens := Tokenize("HELLO World")
	if tokens[0].Lower != "hello" || tokens[1].Lower != "world" {
		t.Errorf("Lower fields wrong: %+v", tokens)
	}
}

// sentences collects the non-empty sentences nextSentence walks: the
// sentences the engine draws its spurious mentions from.
func sentences(text string) []string {
	var out []string
	for off := 0; ; {
		s, next, more := nextSentence(text, off)
		if !more {
			return out
		}
		off = next
		if s != "" {
			out = append(out, s)
		}
	}
}

func TestSentences(t *testing.T) {
	got := sentences("One here. Two there! Is three? Four")
	want := []string{"One here.", "Two there!", "Is three?", "Four"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sentences = %v, want %v", got, want)
	}
}

func TestSentencesEmpty(t *testing.T) {
	if got := sentences("   "); len(got) != 0 {
		t.Errorf("Sentences(blank) = %v", got)
	}
}

func TestIsCapitalized(t *testing.T) {
	tests := []struct {
		in   string
		want bool
	}{
		{"Hello", true}, {"hello", false}, {"HELLO", true}, {"", false}, {"123", false},
	}
	for _, tt := range tests {
		if got := isCapitalized(tt.in); got != tt.want {
			t.Errorf("isCapitalized(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}
