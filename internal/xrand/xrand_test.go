package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestLognormalPositiveAndSkewed(t *testing.T) {
	s := New(1)
	var sum float64
	n := 20000
	var med []bool
	for i := 0; i < n; i++ {
		v := s.Lognormal(0, 1)
		if v <= 0 {
			t.Fatalf("lognormal sample %v <= 0", v)
		}
		sum += v
		med = append(med, v < 1)
	}
	mean := sum / float64(n)
	// E[lognormal(0,1)] = exp(0.5) ~= 1.6487
	if math.Abs(mean-math.Exp(0.5)) > 0.1 {
		t.Errorf("mean = %v, want ~%v", mean, math.Exp(0.5))
	}
	// Median should be ~exp(0)=1, i.e. about half of samples below 1.
	below := 0
	for _, b := range med {
		if b {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(2)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Exponential(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.3 {
		t.Errorf("mean = %v, want ~5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(3)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) = true")
	}
	if !s.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) = false")
	}
	hits := 0
	n := 10000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(4)
	z := NewZipf(s, 1.1, 1000)
	counts := make(map[uint64]int)
	n := 50000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 should dominate: far more popular than rank 100.
	if counts[0] <= counts[100]*5 {
		t.Errorf("Zipf not skewed: count[0]=%d count[100]=%d", counts[0], counts[100])
	}
}

func TestZipfThetaClamped(t *testing.T) {
	s := New(5)
	z := NewZipf(s, 0.5, 10) // invalid theta gets clamped, must not panic
	for i := 0; i < 100; i++ {
		if v := z.Next(); v >= 10 {
			t.Fatalf("value %d out of range", v)
		}
	}
}

func TestChoiceAndSample(t *testing.T) {
	s := New(6)
	items := []string{"a", "b", "c", "d", "e"}
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		seen[Choice(s, items)] = true
	}
	if len(seen) != 5 {
		t.Errorf("Choice over 200 draws hit %d items, want all 5", len(seen))
	}

	sub := Sample(s, items, 3)
	if len(sub) != 3 {
		t.Fatalf("Sample size = %d, want 3", len(sub))
	}
	uniq := make(map[string]bool)
	for _, x := range sub {
		uniq[x] = true
	}
	if len(uniq) != 3 {
		t.Errorf("Sample has duplicates: %v", sub)
	}

	all := Sample(s, items, 10)
	if len(all) != 5 {
		t.Errorf("oversized Sample = %d items, want 5", len(all))
	}
	// Original must not be mutated by the shuffle.
	if items[0] != "a" || items[4] != "e" {
		t.Errorf("Sample mutated input: %v", items)
	}
}
