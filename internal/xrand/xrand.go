// Package xrand provides seeded, deterministic random-number helpers used by
// the simulation substrates: latency distributions (lognormal), skewed key
// popularity (Zipf), and reproducible shuffles.
//
// Every generator is explicitly seeded; nothing in this package reads global
// randomness, so simulations and benchmarks are reproducible run to run.
package xrand

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand with the
// distributions the simulators need. Source is NOT safe for concurrent use;
// create one per goroutine or guard externally.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with seed. The underlying generator is a
// bit-identical reimplementation of rand.NewSource with much cheaper
// seeding (see fastsource.go); every stream it produces is exactly the
// stream rand.New(rand.NewSource(seed)) would.
func New(seed int64) *Source {
	return &Source{rng: rand.New(newFastSource(seed))}
}

// Reseed rewinds the source to the exact state New(seed) would produce,
// letting hot paths keep one Source per worker instead of allocating a
// fresh generator (and its ~5KB state table) for every item.
func (s *Source) Reseed(seed int64) { s.rng.Seed(seed) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// NormFloat64 returns a standard normal sample.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Lognormal returns a sample from a lognormal distribution with the given
// location mu and scale sigma (parameters of the underlying normal). It is
// the standard model for service response times: right-skewed with a long
// tail.
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.rng.NormFloat64())
}

// Exponential returns a sample from an exponential distribution with the
// given mean. mean must be > 0.
func (s *Source) Exponential(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Shuffle pseudo-randomly reorders n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Zipf generates values in [0, n) with a Zipfian popularity skew: rank r is
// drawn with probability proportional to 1/(r+1)^theta. It models the
// highly skewed key popularity typical of cache workloads.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf generator over [0, n) with skew theta (> 1 per
// math/rand's parameterization; 1.07 is the YCSB default).
func NewZipf(src *Source, theta float64, n uint64) *Zipf {
	if theta <= 1 {
		theta = 1.0001
	}
	return &Zipf{z: rand.NewZipf(src.rng, theta, 1, n-1)}
}

// Next returns the next Zipf-distributed value.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Choice returns a pseudo-random element of items. It panics if items is
// empty, mirroring slice indexing semantics.
func Choice[T any](s *Source, items []T) T {
	return items[s.Intn(len(items))]
}

// Sample returns k distinct pseudo-random elements of items (reservoir
// sampling). If k >= len(items) a shuffled copy of items is returned.
func Sample[T any](s *Source, items []T, k int) []T {
	if k >= len(items) {
		out := make([]T, len(items))
		copy(out, items)
		s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	out := make([]T, k)
	copy(out, items[:k])
	for i := k; i < len(items); i++ {
		j := s.Intn(i + 1)
		if j < k {
			out[j] = items[i]
		}
	}
	return out
}
