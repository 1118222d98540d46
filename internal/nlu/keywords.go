package nlu

import (
	"math"
	"sort"
)

// extractKeywords returns the top-k keywords by score. The score is term
// frequency damped by log-length so long documents don't drown short ones;
// stopwords, short tokens, and numbers are excluded. Ties break
// alphabetically for determinism.
func extractKeywords(tokens []Token, stop map[string]bool, k int) []Keyword {
	counts := make(map[string]int)
	total := 0
	for _, t := range tokens {
		if len(t.Lower) < 3 || stop[t.Lower] || isNumeric(t.Lower) {
			continue
		}
		counts[t.Lower]++
		total++
	}
	if total == 0 || k <= 0 {
		return nil
	}
	norm := math.Log(float64(total) + math.E)
	out := make([]Keyword, 0, len(counts))
	for w, c := range counts {
		out = append(out, Keyword{Text: w, Count: c, Score: float64(c) / norm})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Text < out[j].Text
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func isNumeric(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// topicConcepts maps topic trigger words to taxonomy labels for concept
// extraction.
var topicConcepts = map[string]string{
	"technology": "/technology", "software": "/technology", "hardware": "/technology",
	"artificial": "/technology/ai", "intelligence": "/technology/ai", "algorithm": "/technology/ai",
	"cloud": "/technology/cloud", "computing": "/technology/cloud", "data": "/technology/data",
	"market": "/finance", "stock": "/finance", "shares": "/finance", "earnings": "/finance",
	"revenue": "/finance", "investor": "/finance", "investment": "/finance", "bank": "/finance",
	"economy": "/economics", "inflation": "/economics", "trade": "/economics", "currency": "/economics",
	"health": "/health", "hospital": "/health", "medicine": "/health", "vaccine": "/health",
	"climate": "/environment", "energy": "/environment/energy", "solar": "/environment/energy",
	"election": "/politics", "parliament": "/politics", "government": "/politics", "minister": "/politics",
	"education": "/education", "university": "/education", "student": "/education",
	"transport": "/transport", "aviation": "/transport", "railway": "/transport", "shipping": "/transport",
}

// kindConcepts maps mention kinds to taxonomy labels.
var kindConcepts = map[string]string{
	"Country": "/geography/countries",
	"Company": "/business/companies",
	"Person":  "/people",
	"City":    "/geography/cities",
}

// extractConcepts derives taxonomy labels from the document's topic words
// and entity kinds, with confidence proportional to evidence count.
func extractConcepts(tokens []Token, mentions []Mention, k int) []Concept {
	votes := make(map[string]int)
	for _, t := range tokens {
		if label, ok := topicConcepts[t.Lower]; ok {
			votes[label]++
		}
	}
	for _, m := range mentions {
		if label, ok := kindConcepts[m.Kind]; ok {
			votes[label]++
		}
	}
	if len(votes) == 0 || k <= 0 {
		return nil
	}
	maxVotes := 0
	for _, v := range votes {
		if v > maxVotes {
			maxVotes = v
		}
	}
	out := make([]Concept, 0, len(votes))
	for label, v := range votes {
		out = append(out, Concept{Label: label, Confidence: float64(v) / float64(maxVotes)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Label < out[j].Label
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
