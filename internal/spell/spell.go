// Package spell implements the personalized knowledge base's spell checker
// (paper §3): dictionary-based with edit-distance candidate generation in
// the style of Norvig's corrector. The paper's point is architectural — a
// local spell checker "is generally faster as it avoids the overheads of
// remote communication" and costs nothing per call; the Service adapter
// lets the same checker also play the role of the remote alternative in
// experiments.
package spell

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/nlu"
	"repro/internal/service"
)

// Checker is an immutable spell checker; construct with NewChecker and use
// concurrently.
type Checker struct {
	// freq maps known words to their frequency rank weight (higher =
	// more common).
	freq map[string]int
}

// NewChecker builds a checker over the dictionary. freqs optionally
// supplies word frequencies; missing words default to 1. Words are
// lower-cased.
func NewChecker(dictionary []string, freqs map[string]int) *Checker {
	c := &Checker{freq: make(map[string]int, len(dictionary))}
	for _, w := range dictionary {
		lw := strings.ToLower(w)
		f := 1
		if freqs != nil {
			if n, ok := freqs[lw]; ok && n > 0 {
				f = n
			}
		}
		c.freq[lw] = f
	}
	return c
}

// known reports whether the word is in the dictionary.
func (c *Checker) known(word string) bool {
	_, ok := c.freq[strings.ToLower(word)]
	return ok
}

// Size returns the dictionary size.
func (c *Checker) Size() int { return len(c.freq) }

// correct returns the best correction for word: the word itself if known,
// else the highest-frequency dictionary word within edit distance 1, else
// within distance 2. ok is false when no candidate exists.
func (c *Checker) correct(word string) (string, bool) {
	lw := strings.ToLower(word)
	if _, known := c.freq[lw]; known {
		return lw, true
	}
	if best, ok := c.best(edits1(lw)); ok {
		return best, true
	}
	// Distance 2: edits of edits. Generated lazily per candidate set.
	seen := make(map[string]bool)
	var d2 []string
	for _, e1 := range edits1(lw) {
		for _, e2 := range edits1(e1) {
			if !seen[e2] {
				seen[e2] = true
				if _, known := c.freq[e2]; known {
					d2 = append(d2, e2)
				}
			}
		}
	}
	return c.best(d2)
}

// best picks the known candidate with the highest frequency, breaking ties
// alphabetically for determinism.
func (c *Checker) best(candidates []string) (string, bool) {
	bestWord, bestFreq := "", -1
	for _, cand := range candidates {
		f, known := c.freq[cand]
		if !known {
			continue
		}
		if f > bestFreq || (f == bestFreq && cand < bestWord) {
			bestWord, bestFreq = cand, f
		}
	}
	return bestWord, bestFreq >= 0
}

const alphabet = "abcdefghijklmnopqrstuvwxyz"

// edits1 generates all strings at edit distance 1 (deletes, transposes,
// replaces, inserts).
func edits1(word string) []string {
	var out []string
	n := len(word)
	for i := 0; i <= n; i++ {
		left, right := word[:i], word[i:]
		if len(right) > 0 {
			out = append(out, left+right[1:]) // delete
			if len(right) > 1 {
				out = append(out, left+string(right[1])+string(right[0])+right[2:]) // transpose
			}
			for _, ch := range alphabet {
				out = append(out, left+string(ch)+right[1:]) // replace
			}
		}
		for _, ch := range alphabet {
			out = append(out, left+string(ch)+right) // insert
		}
	}
	return out
}

// Correction is one flagged word in a checked text.
type Correction struct {
	Word       string `json:"word"`
	Suggestion string `json:"suggestion,omitempty"`
	Offset     int    `json:"offset"`
}

// Check tokenizes text and returns a correction for every unknown word.
// Numbers and single letters are skipped.
func (c *Checker) Check(text string) []Correction {
	var out []Correction
	for _, tok := range nlu.Tokenize(text) {
		if len(tok.Lower) < 2 || isNumber(tok.Lower) || c.known(tok.Lower) {
			continue
		}
		corr := Correction{Word: tok.Text, Offset: tok.Start}
		if sugg, ok := c.correct(tok.Lower); ok && sugg != tok.Lower {
			corr.Suggestion = sugg
		}
		out = append(out, corr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

func isNumber(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Service wraps the checker as a service.Service (op "spellcheck", Text
// carries the document, response body is the JSON corrections list). Used
// to model the paper's remote spell-check services for the local-vs-remote
// comparison.
func (c *Checker) Service(info service.Info) service.Service {
	return service.Func{
		Meta: info,
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			if req.Op != "spellcheck" && req.Op != "" {
				return service.Response{}, fmt.Errorf("spell: unsupported op %q: %w", req.Op, service.ErrBadRequest)
			}
			body, err := json.Marshal(c.Check(req.Text))
			if err != nil {
				return service.Response{}, fmt.Errorf("spell: encode: %w", err)
			}
			return service.Response{Body: body, ContentType: "application/json"}, nil
		},
	}
}

// DecodeCorrections parses the service response body.
func DecodeCorrections(resp service.Response) ([]Correction, error) {
	var out []Correction
	if err := json.Unmarshal(resp.Body, &out); err != nil {
		return nil, fmt.Errorf("spell: decode: %w", err)
	}
	return out, nil
}
