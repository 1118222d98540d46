package stats

import (
	"math/rand"
	"strings"
	"testing"
)

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(10, 10, 5); err == nil {
		t.Error("max == min should error")
	}
	if _, err := NewHistogram(10, 5, 5); err == nil {
		t.Error("max < min should error")
	}
}

func TestHistogramObserve(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99} {
		h.Observe(x)
	}
	want := []uint64{2, 1, 1, 0, 1}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	h.Observe(-100)
	h.Observe(100)
	counts := h.Counts()
	if counts[0] != 1 {
		t.Errorf("below-range observation should clamp to first bin, got %v", counts)
	}
	if counts[4] != 1 {
		t.Errorf("above-range observation should clamp to last bin, got %v", counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, _ := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Errorf("median estimate = %v, want ~50", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95 || p99 > 100 {
		t.Errorf("p99 estimate = %v, want ~99", p99)
	}
	if q := h.Quantile(-0.5); q < 0 {
		t.Errorf("clamped quantile = %v, want >= 0", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramString(t *testing.T) {
	h, _ := NewHistogram(0, 10, 2)
	h.Observe(1)
	h.Observe(6)
	h.Observe(7)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Errorf("String() = %q, want bars", s)
	}
	if got := strings.Count(s, "\n"); got != 2 {
		t.Errorf("String() has %d lines, want 2 (empty bins skipped)", got)
	}
}

func TestReservoirUnderCapacity(t *testing.T) {
	r := NewReservoir(10, rand.New(rand.NewSource(1)).Float64)
	for i := 0; i < 5; i++ {
		r.Observe(float64(i))
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d, want 5", r.Seen())
	}
	s := r.Sample()
	if len(s) != 5 {
		t.Errorf("sample size = %d, want 5", len(s))
	}
}

func TestReservoirBoundedSize(t *testing.T) {
	r := NewReservoir(16, rand.New(rand.NewSource(42)).Float64)
	for i := 0; i < 10000; i++ {
		r.Observe(float64(i))
	}
	if len(r.Sample()) != 16 {
		t.Errorf("sample size = %d, want 16", len(r.Sample()))
	}
	if r.Seen() != 10000 {
		t.Errorf("Seen = %d, want 10000", r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Statistical check: mean of a large reservoir over uniform stream
	// should approximate the stream mean.
	r := NewReservoir(1000, rand.New(rand.NewSource(7)).Float64)
	for i := 0; i < 100000; i++ {
		r.Observe(float64(i))
	}
	m := Mean(r.Sample())
	if m < 40000 || m > 60000 {
		t.Errorf("reservoir mean = %v, want ~50000", m)
	}
}

func TestReservoirSortedSample(t *testing.T) {
	r := NewReservoir(4, rand.New(rand.NewSource(1)).Float64)
	for _, x := range []float64{3, 1, 2} {
		r.Observe(x)
	}
	s := r.SortedSample()
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Errorf("SortedSample not sorted: %v", s)
		}
	}
}

func TestReservoirMinCapacity(t *testing.T) {
	r := NewReservoir(0, rand.New(rand.NewSource(1)).Float64)
	r.Observe(1)
	r.Observe(2)
	if len(r.Sample()) != 1 {
		t.Errorf("capacity clamped to 1, sample size = %d", len(r.Sample()))
	}
}

// TestReservoirGrowsOnDemand: the sample's storage follows what was
// observed and stops at the capacity, and the replacement source is not
// consulted before the sample is full — while the sample itself is what
// Algorithm R over an up-front allocation gives for the same draws.
func TestReservoirGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{1, 10, 16, 1000, 2048} {
		draws := 0
		rng := rand.New(rand.NewSource(int64(capacity)))
		r := NewReservoir(capacity, func() float64 { draws++; return rng.Float64() })
		if cap(r.items) != 0 {
			t.Errorf("capacity %d: a new reservoir holds room for %d samples, want none", capacity, cap(r.items))
		}
		model := make([]float64, 0, capacity)
		modelRng := rand.New(rand.NewSource(int64(capacity)))
		for i := 0; i < 3*capacity+7; i++ {
			x := float64(i)
			r.Observe(x)
			if len(model) < capacity {
				model = append(model, x)
			} else if j := uint64(modelRng.Float64() * float64(i+1)); j < uint64(capacity) {
				model[j] = x
			}
			if cap(r.items) > capacity {
				t.Fatalf("capacity %d: storage grew to %d after %d observations", capacity, cap(r.items), i+1)
			}
			if i < capacity && draws != 0 {
				t.Fatalf("capacity %d: random source consulted at observation %d, before the sample was full", capacity, i+1)
			}
		}
		got := r.Sample()
		if len(got) != len(model) {
			t.Fatalf("capacity %d: sample has %d items, want %d", capacity, len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("capacity %d: sample[%d] = %v, want %v", capacity, i, got[i], model[i])
			}
		}
	}
}
