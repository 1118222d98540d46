// Package aggregate implements the rich SDK's multi-document and
// multi-service analysis support (paper §2.2): aggregating entities,
// keywords, and per-entity sentiment across many documents (for example
// every document returned by a web search), combining the output of several
// NLU services with confidence proportional to how many services agree, and
// scoring service output against a reference — the "results analyzer" of
// the paper's Figure 3.
package aggregate

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/nlu"
)

// EntityCount is the aggregate frequency of one entity across documents.
type EntityCount struct {
	EntityID  string `json:"entityId"`
	Documents int    `json:"documents"`
	Mentions  int    `json:"mentions"`
}

// Entities aggregates entity frequencies across analyses: how many
// documents mention each entity and how many total mentions it has. The
// result is sorted by documents, then mentions, then ID — "our results can
// thus indicate which named entities ... are most relevant to the search
// query".
func Entities(analyses []nlu.Analysis) []EntityCount {
	mentions := 0
	for _, a := range analyses {
		mentions += len(a.Entities)
	}
	// Sized once for every mention being a new entity. out is never nil:
	// no analyses aggregate to [], not null.
	at := make(map[string]int, mentions) // entity ID → index in out
	out := make([]EntityCount, 0, mentions)
	lastDoc := make([]int, 0, mentions) // per entity, the last document that counted it
	for d, a := range analyses {
		for _, m := range a.Entities {
			i, ok := at[m.EntityID]
			if !ok {
				i = len(out)
				at[m.EntityID] = i
				out = append(out, EntityCount{EntityID: m.EntityID})
				lastDoc = append(lastDoc, -1)
			}
			out[i].Mentions++
			if lastDoc[i] != d {
				lastDoc[i] = d
				out[i].Documents++
			}
		}
	}
	slices.SortFunc(out, func(x, y EntityCount) int {
		if x.Documents != y.Documents {
			return cmp.Compare(y.Documents, x.Documents)
		}
		if x.Mentions != y.Mentions {
			return cmp.Compare(y.Mentions, x.Mentions)
		}
		return strings.Compare(x.EntityID, y.EntityID)
	})
	return out
}

// Keywords aggregates keyword counts across analyses, sorted by total
// count then text. Keywords are not disambiguated (paper §2.2).
func Keywords(analyses []nlu.Analysis, k int) []nlu.Keyword {
	n := 0
	for _, a := range analyses {
		n += len(a.Keywords)
	}
	at := make(map[string]int, n) // keyword text → index in out
	out := make([]nlu.Keyword, 0, n)
	for _, a := range analyses {
		for _, kw := range a.Keywords {
			i, ok := at[kw.Text]
			if !ok {
				i = len(out)
				at[kw.Text] = i
				out = append(out, nlu.Keyword{Text: kw.Text})
			}
			out[i].Count += kw.Count
		}
	}
	for i := range out {
		out[i].Score = float64(out[i].Count)
	}
	slices.SortFunc(out, func(x, y nlu.Keyword) int {
		if x.Count != y.Count {
			return cmp.Compare(y.Count, x.Count)
		}
		return strings.Compare(x.Text, y.Text)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// EntitySentiment is the aggregate sentiment toward one entity across
// documents — how favorably the entity "is represented on the Web".
type EntitySentiment struct {
	EntityID  string  `json:"entityId"`
	MeanScore float64 `json:"meanScore"`
	Documents int     `json:"documents"`
	Mentions  int     `json:"mentions"`
}

// Sentiments aggregates per-entity sentiment across analyses: the mean of
// per-document entity scores, weighted equally per document. Sorted by
// mean score descending (most favorably represented first).
func Sentiments(analyses []nlu.Analysis) []EntitySentiment {
	n := 0
	for _, a := range analyses {
		n += len(a.EntitySentiments)
	}
	at := make(map[string]int, n) // entity ID → index in out
	out := make([]EntitySentiment, 0, n)
	for _, a := range analyses {
		for _, es := range a.EntitySentiments {
			i, ok := at[es.EntityID]
			if !ok {
				i = len(out)
				at[es.EntityID] = i
				out = append(out, EntitySentiment{EntityID: es.EntityID})
			}
			// MeanScore holds the running sum until every document is in.
			out[i].MeanScore += es.Score
			out[i].Documents++
			out[i].Mentions += es.Mentions
		}
	}
	for i := range out {
		out[i].MeanScore /= float64(out[i].Documents)
	}
	slices.SortFunc(out, func(x, y EntitySentiment) int {
		if x.MeanScore != y.MeanScore {
			if x.MeanScore > y.MeanScore {
				return -1
			}
			return 1
		}
		return strings.Compare(x.EntityID, y.EntityID)
	})
	return out
}

// ConsensusEntity is one entity with the services that found it and the
// resulting confidence.
type ConsensusEntity struct {
	EntityID string `json:"entityId"`
	// Services that reported the entity, sorted.
	Services []string `json:"services"`
	// Confidence is |services that found it| / |services consulted|. The
	// paper: "the application could assign a higher degree of confidence
	// to entities ... identified by more services".
	Confidence float64 `json:"confidence"`
}

// Consensus combines entity findings from several services analyzing the
// same document. Results are sorted by confidence descending then ID.
func Consensus(perService []nlu.Analysis) []ConsensusEntity {
	if len(perService) == 0 {
		return nil
	}
	found := make(map[string]map[string]bool) // entity -> set of engines
	for _, a := range perService {
		for _, id := range a.EntityIDs() {
			if found[id] == nil {
				found[id] = make(map[string]bool)
			}
			found[id][a.Engine] = true
		}
	}
	n := float64(len(perService))
	out := make([]ConsensusEntity, 0, len(found))
	for id, engines := range found {
		svcs := make([]string, 0, len(engines))
		for e := range engines {
			svcs = append(svcs, e)
		}
		sort.Strings(svcs)
		out = append(out, ConsensusEntity{
			EntityID:   id,
			Services:   svcs,
			Confidence: float64(len(svcs)) / n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].EntityID < out[j].EntityID
	})
	return out
}

// FilterConfident returns the entity IDs whose consensus confidence is at
// least minConfidence, sorted.
func FilterConfident(consensus []ConsensusEntity, minConfidence float64) []string {
	var out []string
	for _, c := range consensus {
		if c.Confidence >= minConfidence {
			out = append(out, c.EntityID)
		}
	}
	sort.Strings(out)
	return out
}

// PRF is a precision/recall/F1 score of predicted entities against a
// reference — how the SDK lets an application "compare the output of these
// services to determine how good they are".
type PRF struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
}

// Score compares predicted entity IDs against truth. Unknown-prefixed
// predictions ("unknown:...") count as false positives unless the truth
// also lists them.
func Score(predicted, truth []string) PRF {
	predSet := toSet(predicted)
	truthSet := toSet(truth)
	var prf PRF
	for p := range predSet {
		if truthSet[p] {
			prf.TP++
		} else {
			prf.FP++
		}
	}
	for g := range truthSet {
		if !predSet[g] {
			prf.FN++
		}
	}
	if prf.TP+prf.FP > 0 {
		prf.Precision = float64(prf.TP) / float64(prf.TP+prf.FP)
	}
	if prf.TP+prf.FN > 0 {
		prf.Recall = float64(prf.TP) / float64(prf.TP+prf.FN)
	}
	if prf.Precision+prf.Recall > 0 {
		prf.F1 = 2 * prf.Precision * prf.Recall / (prf.Precision + prf.Recall)
	}
	return prf
}

// KnownOnly filters entity IDs to gazetteer-resolved ones, dropping
// "unknown:" heuristic detections.
func KnownOnly(ids []string) []string {
	var out []string
	for _, id := range ids {
		if !strings.HasPrefix(id, "unknown:") {
			out = append(out, id)
		}
	}
	return out
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
