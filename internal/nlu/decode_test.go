package nlu

// The reflection-free DecodeAnalysis is pinned to encoding/json: where the
// fast path accepts a body it must produce exactly json.Unmarshal's value,
// and where it declines, DecodeAnalysis must return what the
// encoding/json-only implementation returned, error text included.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/plainjson/plaintest"
	"repro/internal/raceflag"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// decodeWithJSON is DecodeAnalysis as it was before the fast path.
func decodeWithJSON(body []byte) (Analysis, error) {
	var a Analysis
	if err := json.Unmarshal(body, &a); err != nil {
		return Analysis{}, fmt.Errorf("nlu: decode analysis: %w", err)
	}
	return a, nil
}

// checkDecode asserts the differential contract on one body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeWithJSON(body)
	if fast, ok := decodePlain(body); ok {
		if wantErr != nil {
			t.Fatalf("fast path accepted %q, which encoding/json rejects: %v", body, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast path decoded %q as\n%#v\nencoding/json as\n%#v", body, fast, want)
		}
	}
	got, err := DecodeAnalysis(service.Response{Body: body})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeAnalysis(%q) error %v, want %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeAnalysis(%q) =\n%#v\nwant\n%#v", body, got, want)
	}
}

// fuzzKnown are strings in the answer vocabulary, so generated values
// resolve to the table as well as to the arena.
var fuzzKnown = []string{"country:us", "United States", "Country", "/finance", "kb:acquired", "market", "nlu-beta", "en"}

// fuzzAnalysis builds an Analysis from fuzz bytes, so that every input
// also checks the fast path on what json.Marshal writes.
func fuzzAnalysis(g *plaintest.Gen) Analysis {
	str := func() string { return g.Str(fuzzKnown) }
	return Analysis{
		Engine: str(),
		Entities: plaintest.Slice(g, func(g *plaintest.Gen) Mention {
			return Mention{EntityID: str(), Surface: str(), Kind: str(), Start: g.Int(), End: g.Int()}
		}),
		Keywords: plaintest.Slice(g, func(g *plaintest.Gen) Keyword {
			return Keyword{Text: str(), Count: g.Int(), Score: g.Float()}
		}),
		Sentiment: g.Float(),
		EntitySentiments: plaintest.Slice(g, func(g *plaintest.Gen) EntitySentiment {
			return EntitySentiment{EntityID: str(), Score: g.Float(), Mentions: g.Int()}
		}),
		Concepts: plaintest.Slice(g, func(g *plaintest.Gen) Concept {
			return Concept{Label: str(), Confidence: g.Float()}
		}),
		Relations: plaintest.Slice(g, func(g *plaintest.Gen) Relation {
			return Relation{SubjectID: str(), Predicate: str(), ObjectID: str(), Trigger: str(), Confidence: g.Float()}
		}),
		Language: str(),
	}
}

// FuzzDecodeAnalysis checks the differential contract on the raw input
// and on json.Marshal of an Analysis built from it. The committed corpus
// under testdata/fuzz adds escapes, null against [], upper-case and
// duplicate keys, -0, 1e400, 01, 1.0 into an int, trailing garbage and
// truncation.
func FuzzDecodeAnalysis(f *testing.F) {
	resp := NewEngine(ProfileBeta).Analyze("Acme acquired Globex in Germany. Analysts praised the excellent deal.")
	body, err := json.Marshal(resp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte("\x01hello world, this is fuzz input for a generated analysis"))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
		g := plaintest.Gen(in)
		body, err := json.Marshal(fuzzAnalysis(&g))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, body)
	})
}

// sweepAnswers returns the encoded answers of the three stock engines on
// n corpus documents.
func sweepAnswers(t *testing.T, n int) [][]byte {
	t.Helper()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 28, NumDocs: n})
	var out [][]byte
	for _, p := range []Profile{ProfileAlpha, ProfileBeta, ProfileGamma} {
		e := NewEngine(p)
		for _, d := range corpus.Docs {
			resp, err := e.Analyze(d.Body).Encode()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Body)
		}
	}
	return out
}

// Every answer an engine gives must take the fast path and decode to
// json.Unmarshal's value; decoding twice must agree, and a decoded value
// must not change when the body is overwritten afterwards.
func TestDecodeAnalysisCorpusSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000-answer sweep skipped in -short mode")
	}
	for i, body := range sweepAnswers(t, 2000) {
		want, err := decodeWithJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodePlain(body)
		if !ok {
			t.Fatalf("answer %d declined by the fast path: %s", i, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answer %d: fast path %#v, encoding/json %#v", i, got, want)
		}
		again, _ := decodePlain(body)
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("answer %d decoded differently the second time", i)
		}
		for j := range body {
			body[j] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answer %d: decoded value changed with the body it came from", i)
		}
	}
}

func TestDecodeAnalysisAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 19, NumDocs: 1})
	resp, err := NewEngine(ProfileBeta).Analyze(corpus.Docs[0].Body).Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeAnalysis(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("DecodeAnalysis of a %d-byte answer: %.0f allocations, want <= 8", len(resp.Body), allocs)
	}
}
