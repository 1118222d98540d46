package nlu

import (
	"encoding/json"
	"fmt"

	"repro/internal/service"
)

// Mention is one recognized entity occurrence.
type Mention struct {
	// EntityID is the canonical gazetteer ID, or "unknown:<surface>" for
	// heuristic detections with no gazetteer entry.
	EntityID string `json:"entityId"`
	// Surface is the text as matched.
	Surface string `json:"surface"`
	// Kind is the NER label (Country, Company, Person, Unknown).
	Kind string `json:"kind"`
	// Start and End are byte offsets into the analyzed text.
	Start int `json:"start"`
	End   int `json:"end"`
}

// Keyword is one extracted keyword. Keywords are not disambiguated (paper
// §2.2: "named entities are disambiguated, while keywords are not").
type Keyword struct {
	Text  string  `json:"text"`
	Count int     `json:"count"`
	Score float64 `json:"score"`
}

// EntitySentiment is the aggregated sentiment toward one entity within a
// document (paper §2.2: "it is often more meaningful to obtain sentiment
// scores for individual entities rather than an entire document").
type EntitySentiment struct {
	EntityID string  `json:"entityId"`
	Score    float64 `json:"score"`
	Mentions int     `json:"mentions"`
}

// Concept is a taxonomy label assigned to the document.
type Concept struct {
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
}

// Analysis is the full result of analyzing one document — the typed
// equivalent of the JSON a cognitive service returns.
type Analysis struct {
	// Engine names the service that produced the analysis.
	Engine string `json:"engine"`
	// Entities are the recognized entity mentions in document order.
	Entities []Mention `json:"entities"`
	// Keywords are the top extracted keywords, best first.
	Keywords []Keyword `json:"keywords"`
	// Sentiment is the document-level sentiment in [-1, 1].
	Sentiment float64 `json:"sentiment"`
	// EntitySentiments are per-entity scores for entities mentioned in
	// the document.
	EntitySentiments []EntitySentiment `json:"entitySentiments"`
	// Concepts are taxonomy labels, best first.
	Concepts []Concept `json:"concepts"`
	// Relations are extracted entity relationships (paper §2.1's
	// "relationship extraction").
	Relations []Relation `json:"relations,omitempty"`
	// Language is the detected language code.
	Language string `json:"language"`
}

// EntityIDs returns the distinct entity IDs mentioned, in first-mention
// order.
func (a Analysis) EntityIDs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range a.Entities {
		if !seen[m.EntityID] {
			seen[m.EntityID] = true
			out = append(out, m.EntityID)
		}
	}
	return out
}

// Encode serializes the analysis as a service response.
func (a Analysis) Encode() (service.Response, error) {
	body, err := json.Marshal(a)
	if err != nil {
		return service.Response{}, fmt.Errorf("nlu: encode analysis: %w", err)
	}
	return service.Response{Body: body, ContentType: "application/json"}, nil
}

// DecodeAnalysis parses an analysis from a service response. What Encode
// writes decodes on a reflection-free fast path; any other body goes to
// encoding/json.
func DecodeAnalysis(resp service.Response) (Analysis, error) {
	if a, ok := decodePlain(resp.Body); ok {
		return a, nil
	}
	var a Analysis
	if err := json.Unmarshal(resp.Body, &a); err != nil {
		return Analysis{}, fmt.Errorf("nlu: decode analysis: %w", err)
	}
	return a, nil
}
