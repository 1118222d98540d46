// Package stats provides the statistical and mathematical analysis
// substrate for the rich SDK and the personalized knowledge base. It stands
// in for the Apache Commons Math library used by the paper: descriptive
// statistics and linear / multiple regression (batch and as running
// normal equations). Latency distributions are not kept here:
// internal/metrics' Histogram is their one type.
package stats

import (
	"errors"
	"math"
	"sort"
)

// errEmpty is returned by operations that require at least one observation.
var errEmpty = errors.New("stats: no observations")

// Summary holds descriptive statistics for a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // sample variance (n-1 denominator)
	StdDev   float64
	Min      float64
	Max      float64
	Sum      float64
}

// Summarize computes descriptive statistics over xs. It returns errEmpty if
// xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
