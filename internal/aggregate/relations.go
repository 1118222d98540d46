package aggregate

import (
	"sort"

	"repro/internal/nlu"
)

// Cross-service relation combination (paper §2.1: "if a text document is
// being analyzed for named entity recognition or relationship extraction,
// it may be desirable to use multiple ... relationship extraction services.
// The results from these services could be combined.")

// consensusRelation is one relation with the services that found it.
type consensusRelation struct {
	Relation nlu.Relation `json:"relation"`
	// Services that reported it, sorted.
	Services []string `json:"services"`
	// Confidence is |services| / |services consulted|, scaled by the mean
	// of the per-service extraction confidences.
	Confidence float64 `json:"confidence"`
}

// relationConsensus combines relation findings from several services
// analyzing the same document, sorted by confidence descending then key.
func relationConsensus(perService []nlu.Analysis) []consensusRelation {
	if len(perService) == 0 {
		return nil
	}
	type acc struct {
		rel      nlu.Relation
		services map[string]bool
		confSum  float64
		count    int
	}
	accs := make(map[string]*acc)
	for _, a := range perService {
		for _, r := range a.Relations {
			key := nlu.RelationKey(r)
			e := accs[key]
			if e == nil {
				e = &acc{rel: r, services: make(map[string]bool)}
				accs[key] = e
			}
			if !e.services[a.Engine] {
				e.services[a.Engine] = true
				e.confSum += r.Confidence
				e.count++
			}
		}
	}
	n := float64(len(perService))
	out := make([]consensusRelation, 0, len(accs))
	for _, e := range accs {
		svcs := make([]string, 0, len(e.services))
		for s := range e.services {
			svcs = append(svcs, s)
		}
		sort.Strings(svcs)
		meanConf := e.confSum / float64(e.count)
		out = append(out, consensusRelation{
			Relation:   e.rel,
			Services:   svcs,
			Confidence: float64(len(svcs)) / n * meanConf,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return nlu.RelationKey(out[i].Relation) < nlu.RelationKey(out[j].Relation)
	})
	return out
}
