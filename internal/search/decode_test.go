package search

// The reflection-free DecodeResults is pinned to encoding/json the way
// DecodeAnalysis is in internal/nlu: where the fast path accepts a body
// it must produce exactly json.Unmarshal's value, and where it declines,
// DecodeResults must return what the encoding/json-only implementation
// returned, error text included.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/plainjson/plaintest"
	"repro/internal/raceflag"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// decodeWithJSON is DecodeResults as it was before the fast path.
func decodeWithJSON(body []byte) (Results, error) {
	var r Results
	if err := json.Unmarshal(body, &r); err != nil {
		return Results{}, fmt.Errorf("search: decode results: %w", err)
	}
	return r, nil
}

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
	got, err := DecodeResults(service.Response{Body: body})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeResults(%q) error %v, want %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResults(%q) =\n%#v\nwant\n%#v", body, got, want)
	}
}

func fuzzResults(g *plaintest.Gen) Results {
	str := func() string { return g.Str(nil) }
	return Results{
		Engine: str(),
		Query:  str(),
		Results: plaintest.Slice(g, func(g *plaintest.Gen) Result {
			return Result{DocID: str(), URL: str(), Title: str(), Kind: str(), Score: g.Float(), Published: str()}
		}),
	}
}

// FuzzDecodeResults checks the differential contract on the raw input
// and on json.Marshal of Results built from it. The committed corpus
// under testdata/fuzz adds escapes, null against [], upper-case and
// duplicate keys, -0, 1e400, 01, trailing garbage and truncation.
func FuzzDecodeResults(f *testing.F) {
	f.Add(tenHits(f).Body)
	f.Add([]byte("\x05search input for a generated result list"))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
		g := plaintest.Gen(in)
		body, err := json.Marshal(fuzzResults(&g))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, body)
	})
}

// tenHits is the search service's answer to a query with ten hits.
func tenHits(tb testing.TB) service.Response {
	tb.Helper()
	idx := BuildIndex(webcorpus.Generate(webcorpus.Config{Seed: 21, NumDocs: 150}))
	svc := NewEngine("search-g", idx, TuningG).Service(service.Info{Name: "search-g", Category: "search"})
	resp, err := svc.Invoke(context.Background(), service.Request{
		Query:  "market growth",
		Params: map[string]string{"limit": "10"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

func TestDecodeResultsAllocs(t *testing.T) {
	resp := tenHits(t)
	r, ok := decodePlain(resp.Body)
	if !ok || len(r.Results) != 10 {
		t.Fatalf("a 10-hit answer was declined (ok %v, %d hits)", ok, len(r.Results))
	}
	want, err := decodeWithJSON(resp.Body)
	if err != nil || !reflect.DeepEqual(r, want) {
		t.Fatalf("fast path differs from encoding/json (err %v)", err)
	}
	for i := range resp.Body {
		resp.Body[i] = 'x'
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatal("decoded results changed with the body they came from")
	}
	if raceflag.Enabled {
		t.Skip("allocation leg skipped: the race detector makes sync.Pool drop items at random")
	}
	resp = tenHits(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeResults(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("DecodeResults of a 10-hit answer: %.0f allocations, want <= 4", allocs)
	}
}
