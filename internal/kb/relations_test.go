package kb

import (
	"testing"

	"repro/internal/rdf"
)

func TestRelationsFeedConfidentInference(t *testing.T) {
	k := newKB(t, Config{})
	// A weakly extracted acquisition plus a trusted rule: ownership
	// follows acquisition, but only above the trust threshold.
	if err := k.AddFactWithConfidence("company:acme", "kb:acquired", "company:globex", 0.3); err != nil {
		t.Fatal(err)
	}
	err := k.AddRule(rdf.Rule{
		Name: "ownership",
		Premises: []rdf.Statement{
			{S: rdf.NewVar("a"), P: rdf.NewIRI("kb:acquired"), O: rdf.NewVar("b")},
		},
		Conclusions: []rdf.Statement{
			{S: rdf.NewVar("a"), P: rdf.NewIRI("kb:owns"), O: rdf.NewVar("b")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.InferWithConfidence(0.5); err != nil {
		t.Fatal(err)
	}
	owns := rdf.Statement{S: rdf.NewIRI("company:acme"), P: rdf.NewIRI("kb:owns"), O: rdf.NewIRI("company:globex")}
	if k.Graph().Has(owns) {
		t.Error("low-confidence relation produced an above-threshold inference")
	}
	// With the threshold relaxed the inference lands, carrying the level.
	if _, err := k.InferWithConfidence(0); err != nil {
		t.Fatal(err)
	}
	if !k.Graph().Has(owns) {
		t.Fatal("inference missing at zero threshold")
	}
	if got := k.FactConfidence("company:acme", "kb:owns", "company:globex"); got != 0.3 {
		t.Errorf("inferred level = %v, want 0.3", got)
	}
}
