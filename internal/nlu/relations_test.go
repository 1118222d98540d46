package nlu

import "testing"

func extract(t *testing.T, text string) []Relation {
	t.Helper()
	return analyze(text).Relations
}

func TestExtractAcquisition(t *testing.T) {
	rels := extract(t, "Acme Corporation acquired Globex Industries last month.")
	if len(rels) != 1 {
		t.Fatalf("relations = %+v", rels)
	}
	r := rels[0]
	if r.SubjectID != "company:acme" || r.Predicate != "kb:acquired" || r.ObjectID != "company:globex" {
		t.Errorf("relation = %+v", r)
	}
	if r.Trigger != "acquired" {
		t.Errorf("trigger = %s", r.Trigger)
	}
	if r.Confidence <= 0 || r.Confidence > 1 {
		t.Errorf("confidence = %v", r.Confidence)
	}
}

func TestExtractDirectionality(t *testing.T) {
	rels := extract(t, "Globex Industries acquired Acme Corporation.")
	if len(rels) != 1 {
		t.Fatalf("relations = %+v", rels)
	}
	if rels[0].SubjectID != "company:globex" || rels[0].ObjectID != "company:acme" {
		t.Errorf("direction wrong: %+v", rels[0])
	}
}

func TestExtractRequiresSameSentence(t *testing.T) {
	rels := extract(t, "Acme Corporation reported results. Analysts praised Globex Industries.")
	for _, r := range rels {
		if r.SubjectID == "company:acme" && r.ObjectID == "company:globex" {
			t.Errorf("cross-sentence relation extracted: %+v", r)
		}
	}
}

func TestExtractRequiresTrigger(t *testing.T) {
	rels := extract(t, "Acme Corporation and Globex Industries attended the forum.")
	if len(rels) != 0 {
		t.Errorf("triggerless relation extracted: %+v", rels)
	}
}

func TestExtractDistanceBound(t *testing.T) {
	// The trigger sits between the mentions but the pair is far apart.
	text := "Acme Corporation together with many other well known large firms across several " +
		"different regions and markets acquired yesterday by surprise Globex Industries."
	rels := extract(t, text)
	if len(rels) != 0 {
		t.Errorf("distant relation extracted: %+v", rels)
	}
}

func TestConfidenceDecreasesWithDistance(t *testing.T) {
	near := extract(t, "Acme Corporation acquired Globex Industries.")
	far := extract(t, "Acme Corporation quietly and rather unexpectedly acquired the struggling Globex Industries.")
	if len(near) != 1 || len(far) != 1 {
		t.Fatalf("near=%v far=%v", near, far)
	}
	if near[0].Confidence <= far[0].Confidence {
		t.Errorf("near conf %v should exceed far conf %v", near[0].Confidence, far[0].Confidence)
	}
}

func TestExtractMultipleRelations(t *testing.T) {
	text := "Acme Corporation acquired Globex Industries. Maria Silva praised Initech Systems."
	rels := extract(t, text)
	if len(rels) != 2 {
		t.Fatalf("relations = %+v", rels)
	}
	keys := map[string]bool{}
	for _, r := range rels {
		keys[r.SubjectID+" "+r.Predicate+" "+r.ObjectID] = true
	}
	if !keys["company:acme kb:acquired company:globex"] {
		t.Errorf("missing acquisition: %v", keys)
	}
	if !keys["person:maria-silva kb:praised company:initech"] {
		t.Errorf("missing praise: %v", keys)
	}
}

func TestEngineIncludesRelations(t *testing.T) {
	e := NewEngine(ProfileAlpha)
	a := e.Analyze("Acme Corporation acquired Globex Industries.")
	if len(a.Relations) != 1 {
		t.Fatalf("analysis relations = %+v", a.Relations)
	}
	// Round trip through the service envelope keeps them.
	resp, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAnalysis(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Relations) != 1 {
		t.Error("relations lost in JSON round trip")
	}
}

func TestExtractSameEntityPairSkipped(t *testing.T) {
	rels := extract(t, "Acme praised Acme Corporation.")
	for _, r := range rels {
		if r.SubjectID == r.ObjectID {
			t.Errorf("self-relation extracted: %+v", r)
		}
	}
}
