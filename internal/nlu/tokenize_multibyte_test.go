package nlu

// Tests for the multibyte tokenizer fix: the old scanner treated every
// byte >= 0x80 as a word byte, so UTF-8 punctuation glued adjacent words
// into one token and "…" never ended a sentence. These cases pin the
// corrected rune-aware behavior.

import (
	"reflect"
	"testing"
)

func TestTokenizeEmDashSeparates(t *testing.T) {
	tokens := Tokenize("profits—losses")
	want := []string{"profits", "losses"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
}

func TestTokenizeEllipsisEndsSentence(t *testing.T) {
	tokens := Tokenize("It faded… Then it returned")
	var starts []string
	for _, tok := range tokens {
		if tok.SentenceStart {
			starts = append(starts, tok.Text)
		}
	}
	want := []string{"It", "Then"}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("sentence starts = %v, want %v", starts, want)
	}
}

func TestTokenizeCurlyQuotesSeparate(t *testing.T) {
	tokens := Tokenize("“Profit” and ‘loss’ here")
	want := []string{"Profit", "and", "loss", "here"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
}

func TestTokenizeTypographicApostropheInternal(t *testing.T) {
	tokens := Tokenize("It’s the People’s republic’")
	want := []string{"It’s", "the", "People’s", "republic"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
	if tokens[0].Lower != "it’s" {
		t.Errorf("Lower = %q", tokens[0].Lower)
	}
}

func TestTokenizeNonASCIILetters(t *testing.T) {
	text := "Zürichança 東京 café"
	tokens := Tokenize(text)
	want := []string{"Zürich" + "ança", "東京", "café"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
	for _, tok := range tokens {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offsets wrong for %q", tok.Text)
		}
	}
	if tokens[0].Lower != "züricha"+"nça" {
		t.Errorf("Lower = %q", tokens[0].Lower)
	}
}

func TestSentencesEllipsis(t *testing.T) {
	got := sentences("One fades… Two returns. Three")
	want := []string{"One fades…", "Two returns.", "Three"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sentences = %v, want %v", got, want)
	}
}

func TestTokenizeInvalidUTF8DoesNotGlue(t *testing.T) {
	// A lone 0x80 continuation byte decodes as RuneError, which is not a
	// letter: it must separate the words, not join them.
	tokens := Tokenize("ab\x80cd")
	want := []string{"ab", "cd"}
	if !reflect.DeepEqual(tokenTexts(tokens), want) {
		t.Errorf("tokens = %v, want %v", tokenTexts(tokens), want)
	}
}
