// Package stats provides the statistical and mathematical analysis
// substrate for the rich SDK and the personalized knowledge base. It stands
// in for the Apache Commons Math library used by the paper: descriptive
// statistics, linear / polynomial / multiple regression (batch and as
// running normal equations), and correlation. Latency distributions are
// not kept here: internal/metrics' Histogram is their one type.
package stats

import (
	"errors"
	"fmt"
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

// correlation returns the Pearson correlation coefficient between xs and ys.
// It returns an error if the lengths differ, fewer than two points are
// given, or either series has zero variance.
func correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
