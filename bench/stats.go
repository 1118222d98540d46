package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// minBeyond is the choosing-metrics rule: a tail percentile is only worth
// reporting when at least this many samples lie beyond it.
const minBeyond = 10

// rateSlices is how many equal consecutive slices a timed phase is cut
// into for its rate. An odd count keeps the median one slice's own value.
const rateSlices = 5

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method Python's statistics.quantiles(v, n=4) uses, so the
// spreads printed here are the ones the benchmark's acceptance rule
// computes. Fewer than two values return that value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// phaseStats summarises one timed phase.
type phaseStats struct {
	Ops       int     // ops completed: the sample count of both percentiles
	Slices    int     // slices the phase was cut into for the rate
	OpsPerSec float64 // median of the slices' rates
	P50ms     float64 // over the whole phase
	P99ms     float64 // over the whole phase
}

// opSample is one completed op: when it ended (ns since the phase began)
// and how long it took.
type opSample struct {
	end, lat int64
}

// summarize orders the completed ops by completion time. The rate is the
// median over rateSlices equal consecutive slices, so that one
// noisy-neighbour burst moves one slice and not the result. The percentiles
// are taken over the whole phase: a workload whose cost drifts within a run
// (invoke-ranked) has slices with very different tails, and the median of
// five slice p99s spread 16% over ten seeds where the whole-phase p99
// spread 4%.
func summarize(samples []opSample) phaseStats {
	n := len(samples)
	if n == 0 {
		return phaseStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	k := rateSlices
	if n < k {
		k = 1
	}
	rates := make([]float64, 0, k)
	prevEnd := int64(0)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		end := samples[hi-1].end
		if d := end - prevEnd; d > 0 {
			rates = append(rates, float64(hi-lo)/(float64(d)/1e9))
		}
		prevEnd = end
	}
	lats := make([]int64, n)
	for i, o := range samples {
		lats[i] = o.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return phaseStats{
		Ops: n, Slices: k, OpsPerSec: stats.Median(rates),
		P50ms: float64(percentile(lats, 50)) / 1e6,
		P99ms: float64(percentile(lats, 99)) / 1e6,
	}
}
