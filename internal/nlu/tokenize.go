// Package nlu implements the natural-language-understanding substrate: the
// local equivalents of the cognitive services the paper's SDK invokes
// (IBM Watson, Microsoft, Google, Amazon NLU). It provides tokenization,
// named entity recognition over a gazetteer, keyword extraction, document
// and per-entity sentiment analysis, concept/taxonomy mapping, and named
// entity disambiguation. Three differently tuned engine profiles stand in
// for competing vendors so the SDK's ranking, aggregation, and comparison
// features have real services to exercise.
//
// The analysis hot path works on interned token IDs against a process-wide
// vocabulary (see vocab.go and doc.go); the frozen pre-interning
// implementation lives in nluref and pins Engine.Analyze bit-for-bit.
package nlu

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one word-level token with its byte offsets in the source text.
type Token struct {
	// Text is the token as it appears in the source.
	Text string
	// Lower is the lower-cased form, precomputed for matching.
	Lower string
	// Start and End are byte offsets into the source ([Start, End)).
	Start int
	End   int
	// SentenceStart marks the first token of a sentence.
	SentenceStart bool
}

// Tokenize splits text into word tokens, recording offsets and sentence
// boundaries. Tokens are maximal runs of letters, digits, and internal
// apostrophes; everything else separates tokens.
func Tokenize(text string) []Token {
	var tokens []Token
	scanWords(text, func(start, end int, sentenceStart bool) {
		tok := text[start:end]
		tokens = append(tokens, Token{
			Text:          tok,
			Lower:         strings.ToLower(tok),
			Start:         start,
			End:           end,
			SentenceStart: sentenceStart,
		})
	})
	return tokens
}

// ScanLower walks text's tokens in order, the same tokens Tokenize
// returns, and calls emit with each one's Lower form written into buf,
// which is reused from token to token: lower is valid only until emit
// returns. ScanLower returns the buffer, grown as needed, so a caller
// scanning many texts allocates only when a token outgrows it.
func ScanLower(text string, buf []byte, emit func(lower []byte)) []byte {
	scanWords(text, func(start, end int, _ bool) {
		buf = appendLower(buf[:0], text[start:end])
		emit(buf)
	})
	return buf
}

// appendLower appends strings.ToLower(tok) to dst without building the
// string: ASCII tokens are lowered byte by byte, and only a token with a
// multibyte rune goes through strings.ToLower.
func appendLower(dst []byte, tok string) []byte {
	for i := 0; i < len(tok); i++ {
		if tok[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(tok)...)
		}
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// scanWords is the tokenizer core shared by Tokenize, ScanLower and the
// engines' pooled document scan: it walks text once and emits each
// token's byte span plus whether it opens a sentence.
//
// ASCII is the fast path and keeps the historical rules exactly: letters
// and digits are word bytes, '.', '!', '?' end sentences, and an
// apostrophe is part of a token only when a word rune follows ("it's").
// Bytes >= 0x80 are decoded as runes rather than blindly treated as word
// bytes (the old behavior), so multibyte punctuation — em-dashes,
// ellipses, curly quotes — separates tokens instead of gluing them
// together: only unicode letters and digits extend a token, an ellipsis
// rune ends a sentence, and U+2019 (the typographic apostrophe) behaves
// like the ASCII apostrophe.
func scanWords(text string, emit func(start, end int, sentenceStart bool)) {
	sentenceStart := true
	i := 0
	n := len(text)
	for i < n {
		b := text[i]
		if b < utf8.RuneSelf {
			if !isWordByte(b) {
				if b == '.' || b == '!' || b == '?' {
					sentenceStart = true
				}
				i++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			if !isWordRune(r) {
				if r == '…' {
					sentenceStart = true
				}
				i += size
				continue
			}
		}
		start := i
		for i < n {
			b := text[i]
			if b < utf8.RuneSelf {
				if isWordByte(b) || (b == '\'' && isWordRuneAt(text, i+1)) {
					i++
					continue
				}
				break
			}
			r, size := utf8.DecodeRuneInString(text[i:])
			if isWordRune(r) || (r == '’' && isWordRuneAt(text, i+size)) {
				i += size
				continue
			}
			break
		}
		emit(start, i, sentenceStart)
		sentenceStart = false
	}
}

// isWordByte classifies ASCII word bytes only; multibyte sequences are
// decoded and classified as runes by the scanner.
func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// isWordRune reports whether a non-ASCII rune extends a token.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isWordRuneAt reports whether a word rune starts at byte offset i,
// deciding whether an apostrophe is internal ("it's") or trailing
// ("runners' ").
func isWordRuneAt(text string, i int) bool {
	if i >= len(text) {
		return false
	}
	b := text[i]
	if b < utf8.RuneSelf {
		return isWordByte(b)
	}
	r, _ := utf8.DecodeRuneInString(text[i:])
	return isWordRune(r)
}

// isCapitalized reports whether the token begins with an upper-case letter.
func isCapitalized(tok string) bool {
	for _, r := range tok {
		return unicode.IsUpper(r)
	}
	return false
}
