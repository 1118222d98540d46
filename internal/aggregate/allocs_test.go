package aggregate

import (
	"strconv"
	"testing"

	"repro/internal/nlu"
	"repro/internal/raceflag"
)

// foldInput is ten analyses the way a Fig. 5 run hands them to the
// folds: a few entities, sentiments and keywords each, many of them
// shared between documents.
func foldInput() []nlu.Analysis {
	analyses := make([]nlu.Analysis, 10)
	for d := range analyses {
		a := &analyses[d]
		for j := range 6 {
			id := "company:c" + strconv.Itoa((d+j)%9)
			a.Entities = append(a.Entities, nlu.Mention{EntityID: id})
			if j%2 == 0 {
				a.EntitySentiments = append(a.EntitySentiments, nlu.EntitySentiment{EntityID: id, Score: float64(j-d) / 10, Mentions: 1})
			}
			a.Keywords = append(a.Keywords, nlu.Keyword{Text: "kw" + strconv.Itoa((d*j)%13), Count: j + 1})
		}
	}
	return analyses
}

// TestAggregateAllocs pins what the three Fig. 5 folds allocate over ten
// analyses: each counts its input first and makes its index map and its
// output once, at that size, instead of growing them from empty.
func TestAggregateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	analyses := foldInput()
	for _, tc := range []struct {
		name string
		max  float64
		fold func()
	}{
		{"Entities", 5, func() { Entities(analyses) }},
		{"Sentiments", 4, func() { Sentiments(analyses) }},
		{"Keywords", 4, func() { Keywords(analyses, 10) }},
	} {
		got := testing.AllocsPerRun(100, tc.fold)
		t.Logf("%s: %.0f allocations", tc.name, got)
		if got > tc.max {
			t.Errorf("%s allocates %.0f times over %d analyses, want ≤ %.0f", tc.name, got, len(analyses), tc.max)
		}
	}
}
