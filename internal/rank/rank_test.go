package rank

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

var candidates = []Estimate{
	{Name: "fast-expensive", ResponseTimeMS: 10, Cost: 5, Quality: 0.8},
	{Name: "slow-cheap", ResponseTimeMS: 100, Cost: 0.5, Quality: 0.8},
	{Name: "balanced", ResponseTimeMS: 40, Cost: 2, Quality: 0.9},
}

func TestWeightedEquation1(t *testing.T) {
	s := Weighted{W: Weights{Alpha: 1, Beta: 2, Gamma: 3}}
	e := Estimate{ResponseTimeMS: 10, Cost: 5, Quality: 2}
	// S = 1*10 + 2*5 - 3*2 = 14
	if got := s.Score(e, nil); got != 14 {
		t.Errorf("Score = %v, want 14", got)
	}
}

func TestWeightedLatencyOnlyPicksFastest(t *testing.T) {
	scorer := Weighted{W: Weights{Alpha: 1}}
	best := Rank(candidates, scorer)[0]
	if best.Name != "fast-expensive" {
		t.Errorf("top = %s, want fast-expensive", best.Name)
	}
}

func TestWeightedCostOnlyPicksCheapest(t *testing.T) {
	scorer := Weighted{W: Weights{Beta: 1}}
	best := Rank(candidates, scorer)[0]
	if best.Name != "slow-cheap" {
		t.Errorf("top = %s, want slow-cheap", best.Name)
	}
}

func TestWeightedQualityOnlyPicksBestQuality(t *testing.T) {
	scorer := Weighted{W: Weights{Gamma: 1}}
	best := Rank(candidates, scorer)[0]
	if best.Name != "balanced" {
		t.Errorf("top = %s, want balanced", best.Name)
	}
}

func TestNormalizedEquation2(t *testing.T) {
	s := Normalized{W: Weights{Alpha: 1, Beta: 1, Gamma: 1}}
	all := []Estimate{
		{Name: "a", ResponseTimeMS: 10, Cost: 4, Quality: 1},
		{Name: "b", ResponseTimeMS: 20, Cost: 2, Quality: 0.5},
	}
	// a: 10/20 + 4/4 - 1/1 = 0.5; b: 20/20 + 2/4 - 0.5/1 = 1.0
	if got := s.Score(all[0], all); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Score(a) = %v, want 0.5", got)
	}
	if got := s.Score(all[1], all); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Score(b) = %v, want 1.0", got)
	}
}

func TestNormalizedZeroMaxFactorsIgnored(t *testing.T) {
	s := Normalized{W: DefaultWeights}
	all := []Estimate{
		{Name: "a", ResponseTimeMS: 0, Cost: 0, Quality: 0},
		{Name: "b", ResponseTimeMS: 0, Cost: 0, Quality: 0},
	}
	if got := s.Score(all[0], all); got != 0 {
		t.Errorf("all-zero Score = %v, want 0 (no NaN)", got)
	}
}

func TestNormalizedScoreBounded(t *testing.T) {
	// Property: with unit weights and non-negative inputs, Sn is within
	// [-1, 2].
	f := func(r1, c1, q1, r2, c2, q2 float64) bool {
		abs := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Abs(x)
		}
		all := []Estimate{
			{Name: "a", ResponseTimeMS: abs(r1), Cost: abs(c1), Quality: abs(q1)},
			{Name: "b", ResponseTimeMS: abs(r2), Cost: abs(c2), Quality: abs(q2)},
		}
		s := Normalized{W: DefaultWeights}
		for _, e := range all {
			sc := s.Score(e, all)
			if sc < -1-1e-9 || sc > 2+1e-9 || math.IsNaN(sc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomScorer(t *testing.T) {
	// A scorer that only cares about name length.
	scorer := Custom(func(e Estimate, _ []Estimate) float64 { return float64(len(e.Name)) })
	best := Rank(candidates, scorer)[0]
	if best.Name != "balanced" {
		t.Errorf("top = %s, want balanced (shortest name)", best.Name)
	}
}

func TestRankAscendingAndStable(t *testing.T) {
	ests := []Estimate{
		{Name: "x", ResponseTimeMS: 5},
		{Name: "tie-1", ResponseTimeMS: 10},
		{Name: "tie-2", ResponseTimeMS: 10},
		{Name: "y", ResponseTimeMS: 1},
	}
	ranked := Rank(ests, Weighted{W: Weights{Alpha: 1}})
	wantOrder := []string{"y", "x", "tie-1", "tie-2"}
	for i, w := range wantOrder {
		if ranked[i].Name != w {
			t.Errorf("rank[%d] = %s, want %s", i, ranked[i].Name, w)
		}
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score > ranked[i].Score {
			t.Error("scores not ascending")
		}
	}
}

// TestOrder checks the failover order Rank gives (paper §2.1: "start
// with higher ranked services and continue with lower ranked services").
func TestOrder(t *testing.T) {
	var got []string
	for _, s := range Rank(candidates, Weighted{W: Weights{Alpha: 1}}) {
		got = append(got, s.Name)
	}
	want := []string{"fast-expensive", "balanced", "slow-cheap"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(nil, Weighted{}); len(got) != 0 {
		t.Errorf("Rank(nil) = %v, want empty", got)
	}
}

func TestEq1VsEq2CanDisagree(t *testing.T) {
	// Raw weighting is dominated by the large-magnitude latency factor;
	// normalization rebalances. These candidates are constructed so the
	// two formulas pick different winners with equal weights.
	ests := []Estimate{
		{Name: "low-latency", ResponseTimeMS: 90, Cost: 10, Quality: 0},
		{Name: "cheap", ResponseTimeMS: 100, Cost: 1, Quality: 0},
	}
	b1 := Rank(ests, Weighted{W: DefaultWeights})[0]
	b2 := Rank(ests, Normalized{W: DefaultWeights})[0]
	// Eq1: low-latency = 100, cheap = 101 -> low-latency wins.
	// Eq2: low-latency = 0.9+1.0 = 1.9, cheap = 1.0+0.1 = 1.1 -> cheap wins.
	if b1.Name != "low-latency" {
		t.Errorf("Eq1 top = %s, want low-latency", b1.Name)
	}
	if b2.Name != "cheap" {
		t.Errorf("Eq2 top = %s, want cheap", b2.Name)
	}
}
