package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{
			name: "single value",
			xs:   []float64{5},
			want: Summary{N: 1, Mean: 5, Min: 5, Max: 5, Sum: 5},
		},
		{
			name: "simple series",
			xs:   []float64{2, 4, 4, 4, 5, 5, 7, 9},
			want: Summary{N: 8, Mean: 5, Variance: 32.0 / 7, StdDev: math.Sqrt(32.0 / 7), Min: 2, Max: 9, Sum: 40},
		},
		{
			name: "negative values",
			xs:   []float64{-3, -1, 1, 3},
			want: Summary{N: 4, Mean: 0, Variance: 20.0 / 3, StdDev: math.Sqrt(20.0 / 3), Min: -3, Max: 3, Sum: 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Summarize(tt.xs)
			if err != nil {
				t.Fatalf("Summarize() error = %v", err)
			}
			if got.N != tt.want.N || !almostEqual(got.Mean, tt.want.Mean, 1e-9) ||
				!almostEqual(got.Variance, tt.want.Variance, 1e-9) ||
				!almostEqual(got.Min, tt.want.Min, 0) || !almostEqual(got.Max, tt.want.Max, 0) ||
				!almostEqual(got.Sum, tt.want.Sum, 1e-9) {
				t.Errorf("Summarize() = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != errEmpty {
		t.Errorf("Summarize(nil) error = %v, want errEmpty", err)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"odd", []float64{5, 1, 3}, 3},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"duplicates", []float64{2, 2, 2, 2}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.xs); got != tt.want {
				t.Errorf("Median(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestMeanPropertyBounds(t *testing.T) {
	// Property: mean is always within [min, max] of the sample.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s, err := Summarize(clean)
		if err != nil {
			return false
		}
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
