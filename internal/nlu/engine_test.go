package nlu

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/service"
)

const sampleDoc = "Acme Corporation reported excellent quarterly earnings. " +
	"Analysts in Germany praised the strong growth, while investors in Japan " +
	"remained confident about the technology market."

func TestEngineAnalyzeBasics(t *testing.T) {
	e := NewEngine(ProfileAlpha)
	a := e.Analyze(sampleDoc)
	if a.Engine != "nlu-alpha" || a.Language != "en" {
		t.Errorf("metadata = %+v", a)
	}
	ids := a.EntityIDs()
	for _, want := range []string{"company:acme", "country:de", "country:jp"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("entity %s missing from %v", want, ids)
		}
	}
	if a.Sentiment <= 0 {
		t.Errorf("sentiment = %v, want positive", a.Sentiment)
	}
	if len(a.Keywords) == 0 {
		t.Error("no keywords")
	}
	if len(a.Concepts) == 0 {
		t.Error("no concepts")
	}
}

func TestEngineDeterministicPerDocument(t *testing.T) {
	e := NewEngine(ProfileGamma) // noisiest profile
	a1 := e.Analyze(sampleDoc)
	a2 := e.Analyze(sampleDoc)
	if !reflect.DeepEqual(a1, a2) {
		t.Error("same engine and document produced different analyses (breaks caching semantics)")
	}
}

func TestEnginesDiffer(t *testing.T) {
	alpha := NewEngine(ProfileAlpha).Analyze(sampleDoc)
	gamma := NewEngine(ProfileGamma).Analyze(sampleDoc)
	if reflect.DeepEqual(alpha.Entities, gamma.Entities) && alpha.Sentiment == gamma.Sentiment {
		t.Error("different profiles produced identical analyses")
	}
}

func TestEngineQualityOrdering(t *testing.T) {
	// Over many generated docs, alpha (low drop, no spurious) should find
	// more true gazetteer entities than gamma (high drop).
	docs := make([]string, 40)
	for i := range docs {
		c1 := lexicon.Countries[i%len(lexicon.Countries)]
		c2 := lexicon.Companies[i%len(lexicon.Companies)]
		docs[i] = c1.Name + " welcomed " + c2.Name + " with a favorable trade deal, " +
			"document number " + strings.Repeat("x", i%7) + "."
	}
	alpha := NewEngine(ProfileAlpha)
	gamma := NewEngine(ProfileGamma)
	countKnown := func(e *Engine) int {
		n := 0
		for _, d := range docs {
			for _, m := range e.Analyze(d).Entities {
				if !strings.HasPrefix(m.EntityID, "unknown:") {
					n++
				}
			}
		}
		return n
	}
	if a, g := countKnown(alpha), countKnown(gamma); a <= g {
		t.Errorf("alpha found %d known mentions, gamma %d; want alpha > gamma", a, g)
	}
}

func TestEngineServiceAdapter(t *testing.T) {
	e := NewEngine(ProfileAlpha)
	svc := e.Service(service.Info{Name: "nlu-alpha", Category: "nlu", CostPerCall: 0.01})
	resp, err := svc.Invoke(context.Background(), service.Request{Op: "analyze", Text: sampleDoc})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeAnalysis(resp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "nlu-alpha" || len(a.Entities) == 0 {
		t.Errorf("decoded analysis = %+v", a)
	}
}

func TestEngineServiceRejectsEmptyAndUnknownOp(t *testing.T) {
	svc := NewEngine(ProfileAlpha).Service(service.Info{Name: "n", Category: "nlu"})
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "analyze"}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("empty doc error = %v, want ErrBadRequest", err)
	}
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "translate", Text: "x"}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("unknown op error = %v, want ErrBadRequest", err)
	}
}

func TestAnalysisEncodeDecodeRoundTrip(t *testing.T) {
	a := NewEngine(ProfileBeta).Analyze(sampleDoc)
	resp, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentType != "application/json" {
		t.Errorf("ContentType = %s", resp.ContentType)
	}
	back, err := DecodeAnalysis(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(a), normalize(back)) {
		t.Error("round trip changed the analysis")
	}
}

// normalize maps empty slices to nil so JSON round-trip comparison is fair.
func normalize(a Analysis) Analysis {
	if len(a.Entities) == 0 {
		a.Entities = nil
	}
	if len(a.Keywords) == 0 {
		a.Keywords = nil
	}
	if len(a.EntitySentiments) == 0 {
		a.EntitySentiments = nil
	}
	if len(a.Concepts) == 0 {
		a.Concepts = nil
	}
	if len(a.Relations) == 0 {
		a.Relations = nil
	}
	return a
}

func TestDecodeAnalysisBadBody(t *testing.T) {
	if _, err := DecodeAnalysis(service.Response{Body: []byte("{oops")}); err == nil {
		t.Error("expected decode error")
	}
}

func TestKeywordsExcludeStopwordsAndShort(t *testing.T) {
	kws := analyze("the the the market market growth of at it is").Keywords
	for _, k := range kws {
		if k.Text == "the" || k.Text == "of" || k.Text == "it" {
			t.Errorf("stopword %q extracted", k.Text)
		}
	}
	if len(kws) == 0 || kws[0].Text != "market" {
		t.Errorf("keywords = %+v, want market first", kws)
	}
}

func TestKeywordsTopK(t *testing.T) {
	p := noiseFree
	p.MaxKeywords = 3
	kws := NewEngine(p).Analyze("alpha beta gamma delta epsilon zeta market economy trade policy").Keywords
	if len(kws) != 3 {
		t.Errorf("got %d keywords, want 3", len(kws))
	}
}

func TestConceptsFromTopicsAndKinds(t *testing.T) {
	text := "Acme Corporation stock surged as earnings beat forecasts in the market."
	cs := analyze(text).Concepts
	labels := map[string]bool{}
	for _, c := range cs {
		labels[c.Label] = true
		if c.Confidence <= 0 || c.Confidence > 1 {
			t.Errorf("confidence %v out of (0,1]", c.Confidence)
		}
	}
	if !labels["/finance"] {
		t.Errorf("concepts = %+v, want /finance", cs)
	}
	if !labels["/business/companies"] {
		t.Errorf("concepts = %+v, want /business/companies", cs)
	}
}
