package nlu_test

// FuzzTokenize asserts the tokenizer's structural invariants on
// arbitrary byte soup — offsets in bounds and strictly ordered, Text
// slicing back out of the input, Lower really being the lower-casing,
// sentence flags starting the stream — holds ScanLower to Tokenize's
// Lower sequence, and locks the tokenizer to the frozen reference on
// pure-ASCII input, where the two are specified to agree byte for byte.

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/nlu"
	"repro/internal/nlu/nluref"
)

func FuzzTokenize(f *testing.F) {
	f.Add("The quick brown fox. It's fast!")
	f.Add("profits—losses… “quotes” and it’s")
	f.Add("Zürich 東京 café naïve")
	f.Add("a\x80b\xff\xfe…")
	f.Add("... !!! ??? 42% Q3, runners' it's")
	f.Add("")
	f.Add("İSTANBUL ÄÖÜ ǅemal ΣΑΣ Straße AZ ZEBRA")
	f.Fuzz(func(t *testing.T, text string) {
		tokens := nlu.Tokenize(text)
		prevEnd := 0
		for i, tok := range tokens {
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(text) {
				t.Fatalf("token %d span [%d,%d) out of order or bounds (prev end %d, len %d)",
					i, tok.Start, tok.End, prevEnd, len(text))
			}
			prevEnd = tok.End
			if text[tok.Start:tok.End] != tok.Text {
				t.Fatalf("token %d Text %q != text[%d:%d] %q", i, tok.Text, tok.Start, tok.End, text[tok.Start:tok.End])
			}
			if tok.Lower != strings.ToLower(tok.Text) {
				t.Fatalf("token %d Lower %q != ToLower(%q)", i, tok.Lower, tok.Text)
			}
			if i == 0 && !tok.SentenceStart {
				t.Fatal("first token does not start a sentence")
			}
		}
		// ScanLower yields exactly the Lower sequence, multibyte and
		// invalid UTF-8 included, through a buffer it reuses.
		n := 0
		nlu.ScanLower(text, nil, func(lower []byte) {
			if n >= len(tokens) {
				t.Fatalf("ScanLower yields more than Tokenize's %d tokens", len(tokens))
			}
			if string(lower) != tokens[n].Lower {
				t.Fatalf("ScanLower token %d = %q, Tokenize's Lower %q", n, lower, tokens[n].Lower)
			}
			n++
		})
		if n != len(tokens) {
			t.Fatalf("ScanLower yields %d tokens, Tokenize %d", n, len(tokens))
		}
		// On pure-ASCII input the fixed tokenizer and the frozen
		// reference must agree exactly.
		if utf8.ValidString(text) {
			ascii := true
			for i := 0; i < len(text); i++ {
				if text[i] >= 0x80 {
					ascii = false
					break
				}
			}
			if ascii {
				ref := nluref.Tokenize(text)
				if len(ref) != len(tokens) {
					t.Fatalf("ASCII divergence: %d tokens vs reference %d", len(tokens), len(ref))
				}
				for i := range tokens {
					if tokens[i] != nlu.Token(ref[i]) {
						t.Fatalf("ASCII divergence at token %d: %+v vs %+v", i, tokens[i], ref[i])
					}
				}
			}
		}
	})
}

// FuzzAnalyzeMatchesReference holds Engine.Analyze to the frozen nluref
// engine on arbitrary ASCII text, every oracle profile: the marshaled
// analyses must be byte-identical. Text with a byte >= 0x80 is skipped,
// since nlu's tokenizer deliberately splits multibyte punctuation where
// nluref glues it.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	engines := make([]*nlu.Engine, len(oracleProfiles))
	refs := make([]*nluref.Engine, len(oracleProfiles))
	for i, p := range oracleProfiles {
		engines[i], refs[i] = nlu.NewEngine(p.nu), nluref.NewEngine(p.ref)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for i := 0; i < len(text); i++ {
			if text[i] >= 0x80 {
				return
			}
		}
		for i, p := range oracleProfiles {
			if got, want := mustJSON(t, engines[i].Analyze(text)), mustJSON(t, refs[i].Analyze(text)); got != want {
				t.Fatalf("%s diverged on %q\n got: %s\nwant: %s", p.nu.Name, text, got, want)
			}
		}
	})
}
