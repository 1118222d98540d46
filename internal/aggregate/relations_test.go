package aggregate

import (
	"testing"

	"repro/internal/nlu"
)

func analysisWithRelations(engine string, rels ...nlu.Relation) nlu.Analysis {
	return nlu.Analysis{Engine: engine, Relations: rels}
}

func rel(s, p, o string, conf float64) nlu.Relation {
	return nlu.Relation{SubjectID: s, Predicate: p, ObjectID: o, Confidence: conf}
}

func TestRelationConsensusAgreementBoostsConfidence(t *testing.T) {
	acq := rel("company:acme", "kb:acquired", "company:globex", 0.9)
	perService := []nlu.Analysis{
		analysisWithRelations("alpha", acq),
		analysisWithRelations("beta", acq),
		analysisWithRelations("gamma", rel("company:acme", "kb:sued", "company:globex", 0.8)),
	}
	got := relationConsensus(perService)
	if len(got) != 2 {
		t.Fatalf("consensus = %+v", got)
	}
	// The 2/3-agreed acquisition outranks the 1/3 lawsuit.
	if got[0].Relation.Predicate != "kb:acquired" {
		t.Errorf("top relation = %+v", got[0])
	}
	if len(got[0].Services) != 2 {
		t.Errorf("services = %v", got[0].Services)
	}
	if got[0].Confidence <= got[1].Confidence {
		t.Errorf("agreed relation confidence %v should beat singleton %v",
			got[0].Confidence, got[1].Confidence)
	}
}

func TestRelationConsensusEmpty(t *testing.T) {
	if got := relationConsensus(nil); got != nil {
		t.Errorf("consensus = %v", got)
	}
	if got := relationConsensus([]nlu.Analysis{{Engine: "a"}}); len(got) != 0 {
		t.Errorf("no-relations consensus = %v", got)
	}
}

func TestRelationConsensusDeterministic(t *testing.T) {
	perService := []nlu.Analysis{
		analysisWithRelations("a",
			rel("x", "kb:praised", "y", 0.5),
			rel("x", "kb:acquired", "y", 0.5)),
	}
	g1 := relationConsensus(perService)
	g2 := relationConsensus(perService)
	for i := range g1 {
		if nlu.RelationKey(g1[i].Relation) != nlu.RelationKey(g2[i].Relation) {
			t.Fatal("order unstable")
		}
	}
	// Tie on confidence breaks by key: acquired < praised.
	if g1[0].Relation.Predicate != "kb:acquired" {
		t.Errorf("tie-break order = %+v", g1)
	}
}
