package nlu

import "testing"

func docScore(text string) float64 { return analyze(text).Sentiment }

func TestDocumentSentimentPolarity(t *testing.T) {
	pos := docScore("The excellent results were praised as a remarkable success with strong growth.")
	neg := docScore("The terrible losses and the alarming decline caused a dismal crisis.")
	neutral := docScore("The committee met on Tuesday to discuss the schedule.")
	if pos <= 0 {
		t.Errorf("positive doc scored %v", pos)
	}
	if neg >= 0 {
		t.Errorf("negative doc scored %v", neg)
	}
	if neutral != 0 {
		t.Errorf("neutral doc scored %v", neutral)
	}
}

func TestSentimentBounded(t *testing.T) {
	long := ""
	for i := 0; i < 200; i++ {
		long += "excellent outstanding great "
	}
	if s := docScore(long); s > 1 || s < -1 {
		t.Errorf("score %v out of [-1,1]", s)
	}
}

func TestNegationFlips(t *testing.T) {
	plain := docScore("The product is good.")
	negated := docScore("The product is not good.")
	if plain <= 0 {
		t.Fatalf("baseline positive = %v", plain)
	}
	if negated >= 0 {
		t.Errorf("negated score = %v, want negative", negated)
	}
}

func TestIntensifierAmplifies(t *testing.T) {
	plain := docScore("The result was good.")
	strong := docScore("The result was very good.")
	if strong <= plain {
		t.Errorf("intensified %v <= plain %v", strong, plain)
	}
}

func TestEntitySentimentSeparation(t *testing.T) {
	// One entity praised, the other condemned, far apart in the text.
	text := "Acme Corporation reported excellent profits and strong impressive growth this quarter, winning praise. " +
		"Meanwhile analysts watched the markets with detached interest across many regions and several sectors overall. " +
		"Globex Industries suffered terrible losses and a dismal decline amid the deepening scandal."
	a := analyze(text)
	if len(a.Entities) != 2 {
		t.Fatalf("mentions = %+v", a.Entities)
	}
	es := a.EntitySentiments
	if len(es) != 2 {
		t.Fatalf("entity sentiments = %+v", es)
	}
	byID := map[string]float64{}
	for _, e := range es {
		byID[e.EntityID] = e.Score
	}
	if byID["company:acme"] <= 0 {
		t.Errorf("Acme sentiment = %v, want positive", byID["company:acme"])
	}
	if byID["company:globex"] >= 0 {
		t.Errorf("Globex sentiment = %v, want negative", byID["company:globex"])
	}
}

func TestEntitySentimentMentionCounts(t *testing.T) {
	text := "France grew. France prospered. Germany stalled."
	es := analyze(text).EntitySentiments
	counts := map[string]int{}
	for _, e := range es {
		counts[e.EntityID] = e.Mentions
	}
	if counts["country:fr"] != 2 || counts["country:de"] != 1 {
		t.Errorf("mention counts = %v", counts)
	}
}

func TestEntitySentimentEmpty(t *testing.T) {
	if es := analyze("Nothing notable here.").EntitySentiments; es != nil {
		t.Errorf("EntitySentiments = %v, want nil", es)
	}
}
