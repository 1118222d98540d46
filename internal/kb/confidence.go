package kb

import "repro/internal/rdf"

// Accuracy levels on facts (the paper's §5 future work, implemented): each
// fact may carry a confidence in (0, 1]; inference propagates levels so
// newly inferred facts are only as trusted as their weakest support.

// AddFactWithConfidence enters a fact with an accuracy level.
func (k *KB) AddFactWithConfidence(subject, predicate, object string, level float64) error {
	if err := k.AddFact(subject, predicate, object); err != nil {
		return err
	}
	return k.confidences().Set(k.factStatement(subject, predicate, object), level)
}

// FactConfidence returns the accuracy level of a fact (1 if never set).
func (k *KB) FactConfidence(subject, predicate, object string) float64 {
	return k.confidences().Get(k.factStatement(subject, predicate, object))
}

// InferWithConfidence forward-chains the built-in reasoners plus user
// rules while propagating accuracy levels: derived facts get
// min(premise levels) and facts derivable several ways keep their best
// level. Derivations weaker than minThreshold are discarded. It returns
// how many facts were newly asserted or had their level raised.
func (k *KB) InferWithConfidence(minThreshold float64) (int, error) {
	base := k.allRules()
	rules := make([]rdf.ConfidentRule, 0, len(base))
	for _, r := range base {
		rules = append(rules, rdf.ConfidentRule{Rule: r, Confidence: 1})
	}
	return rdf.ForwardChainConfidence(k.graph, k.confidences(), rules, minThreshold, 0)
}

func (k *KB) confidences() *rdf.Confidences {
	if k.conf == nil {
		k.conf = rdf.NewConfidences(1)
	}
	return k.conf
}

func (k *KB) factStatement(subject, predicate, object string) rdf.Statement {
	o := rdf.NewLiteral(object)
	if looksLikeIRI(object) {
		o = rdf.NewIRI(object)
	}
	return rdf.Statement{S: rdf.NewIRI(subject), P: rdf.NewIRI(predicate), O: o}
}
