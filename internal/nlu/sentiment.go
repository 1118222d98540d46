package nlu

import (
	"math"

	"repro/internal/lexicon"
)

// sentimentHit is one sentiment-bearing token with its resolved weight
// after negation and intensification.
type sentimentHit struct {
	tokenIndex int
	weight     float64
}

var (
	intensifierSet = toSet(lexicon.Intensifiers)
	negatorSet     = toSet(lexicon.Negators)
)

func toSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// scanSentiment finds sentiment-bearing tokens, applying negation ("not
// good" flips) and intensification ("very good" amplifies) from the two
// preceding tokens.
func scanSentiment(tokens []Token, weights map[string]float64) []sentimentHit {
	var hits []sentimentHit
	for i, t := range tokens {
		w, ok := weights[t.Lower]
		if !ok {
			continue
		}
		factor := 1.0
		for back := 1; back <= 2 && i-back >= 0; back++ {
			prev := tokens[i-back].Lower
			if negatorSet[prev] {
				factor = -factor
			} else if intensifierSet[prev] {
				factor *= 1.5
			}
		}
		hits = append(hits, sentimentHit{tokenIndex: i, weight: w * factor})
	}
	return hits
}

// documentSentiment scores the whole document in [-1, 1]: the weighted sum
// of sentiment hits squashed by tanh so long documents saturate rather than
// overflow.
func documentSentiment(tokens []Token, weights map[string]float64) float64 {
	hits := scanSentiment(tokens, weights)
	if len(hits) == 0 {
		return 0
	}
	var sum float64
	for _, h := range hits {
		sum += h.weight
	}
	return math.Tanh(sum / 3)
}

// entitySentimentWindow is how many tokens on each side of a mention
// contribute to that entity's sentiment.
const entitySentimentWindow = 8

// entitySentiments scores each mentioned entity from the sentiment hits
// within a window around its mentions — the paper's per-entity sentiment
// (offered by Watson Developer Cloud) rather than one score for a document
// that "may describe several different entities".
func entitySentiments(tokens []Token, mentions []Mention, weights map[string]float64) []EntitySentiment {
	hits := scanSentiment(tokens, weights)
	if len(mentions) == 0 {
		return nil
	}
	// Map byte offsets to token indices for the mentions.
	tokenAt := func(byteOff int) int {
		for i, t := range tokens {
			if t.Start <= byteOff && byteOff < t.End {
				return i
			}
			if t.Start > byteOff {
				return i
			}
		}
		return len(tokens) - 1
	}
	type acc struct {
		sum      float64
		mentions int
	}
	accs := make(map[string]*acc)
	order := make([]string, 0, 8)
	for _, m := range mentions {
		a, ok := accs[m.EntityID]
		if !ok {
			a = &acc{}
			accs[m.EntityID] = a
			order = append(order, m.EntityID)
		}
		a.mentions++
		center := tokenAt(m.Start)
		lo, hi := center-entitySentimentWindow, center+entitySentimentWindow
		for _, h := range hits {
			if h.tokenIndex >= lo && h.tokenIndex <= hi {
				a.sum += h.weight
			}
		}
	}
	out := make([]EntitySentiment, 0, len(order))
	for _, id := range order {
		a := accs[id]
		out = append(out, EntitySentiment{
			EntityID: id,
			Score:    math.Tanh(a.sum / (2 * float64(a.mentions))),
			Mentions: a.mentions,
		})
	}
	return out
}
