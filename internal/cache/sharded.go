package cache

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/clock"
)

// Sharded is a bounded LRU cache split across N power-of-two shards, each
// with its own mutex, LRU list, and statistics. Keys map to shards by a
// seeded constant-cost hash over a sample of the key (see shard), so
// concurrent lookups for different keys contend on different locks — the
// memcached-style answer to a single-mutex hit path serializing every
// cache hit in the process (PAPERS.md: Nishtala et al., "Scaling Memcache
// at Facebook").
//
// The total capacity is divided across the shards (the shard capacities
// sum to exactly the configured capacity), so the cache never holds more
// entries than that. Eviction is per shard: a hot shard evicts its own LRU
// tail even while other shards have room, which is the usual sharding
// trade-off against a global LRU order.
//
// Sharded is safe for concurrent use.
type Sharded[V any] struct {
	shards []shard[V] // laid out contiguously; one less pointer chase per op
	shift  uint       // 64 - log2(len(shards)): the multiply's top bits pick the shard
	seed   uint64
	gen    atomic.Uint64 // bumped by Clear; Fill stores only under the generation it started in
}

// defaultShards picks a power-of-two shard count sized to the machine's
// parallelism: contention scales with runnable goroutines, which scale
// with GOMAXPROCS. The floor of 8 keeps small machines from degenerating
// to a single mutex.
func defaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n < 8 {
		n = 8
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSharded returns a sharded LRU cache holding at most capacity entries
// in total. capacity must be >= 1; smaller values are clamped to 1. The
// shard count follows GOMAXPROCS (see defaultShards) and is halved until
// every shard holds at least one entry.
func NewSharded[V any](capacity int, opts ...Option) *Sharded[V] {
	o := options{clk: clock.Real()}
	for _, fn := range opts {
		fn(&o)
	}
	if capacity < 1 {
		capacity = 1
	}
	n := o.shards
	if n <= 0 {
		n = defaultShards()
	}
	n = ceilPow2(n)
	for n > 1 && n > capacity {
		n >>= 1
	}
	s := &Sharded[V]{
		shards: make([]shard[V], n),
		shift:  uint(64 - bits.Len(uint(n-1))),
		seed:   new(maphash.Hash).Sum64(), // a per-cache random 64-bit seed
	}
	// Distribute capacity as evenly as possible; the first capacity%n
	// shards take the remainder so the sum is exactly capacity.
	base, rem := capacity/n, capacity%n
	for i := range s.shards {
		c := base
		if i < rem {
			c++
		}
		s.shards[i].init(c, o)
	}
	return s
}

// shard returns the shard owning key. Shard selection must stay a small
// constant cost no matter how long the key is — cache keys here are
// typically a service prefix plus a sha256 hex digest (~74 bytes), and
// hashing all of it (byte-wise FNV-1a, or even maphash.String) adds a
// measurable fraction to a ~35ns hit path that already pays the map's own
// full-key hash. Spreading across shards only needs a few well-mixed
// bits, so shard samples the head and tail instead of the whole key.
func (s *Sharded[V]) shard(key string) *shard[V] {
	n := len(key)
	if n < 8 {
		return s.shardShort(key)
	}
	// Sample the key's first 8 bytes, last 8 bytes, and length; fold in
	// the seed; and let one Fibonacci multiply spread the result, taking
	// the product's top bits (the well-mixed ones) as the shard index.
	// The two le64 reads compile to single 8-byte loads, so the cost is
	// flat in key length. Keys that agree on head, tail, AND length land
	// on one shard — acceptable because the SDK's cache keys end in a
	// request digest, and a skewed shard only degrades concurrency.
	h := (s.seed ^ le64(key) ^ bits.RotateLeft64(le64(key[n-8:]), 32) ^ uint64(n)) * 0x9e3779b97f4a7c15
	return &s.shards[h>>s.shift]
}

// shardShort covers keys under 8 bytes, kept out of shard so the common
// path stays within the inlining budget: FNV-1a over the whole key, with
// a final Fibonacci multiply so the top bits are usable as an index.
func (s *Sharded[V]) shardShort(key string) *shard[V] {
	h := s.seed ^ 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return &s.shards[(h*0x9e3779b97f4a7c15)>>s.shift]
}

// le64 reads the first 8 bytes of s as a little-endian uint64; the
// compiler combines the byte reads into one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Get returns the cached value for key. It returns errNotFound if the key
// is absent or its entry has expired; expired entries are removed.
func (s *Sharded[V]) Get(key string) (V, error) { return s.shard(key).get(key) }

// Set stores value under key with the cache's TTL.
func (s *Sharded[V]) Set(key string, value V) { s.shard(key).set(key, value, nil, 0) }

// Delete removes key if present and reports whether it was found.
func (s *Sharded[V]) Delete(key string) bool { return s.shard(key).remove(key) }

// Clear removes every entry from every shard. Activity counters are
// preserved (they are monotonic); Size drops to 0. A Fill whose fill was
// already running when Clear began does not cache its result.
func (s *Sharded[V]) Clear() {
	s.gen.Add(1)
	for i := range s.shards {
		s.shards[i].clear()
	}
}

// Stats returns the activity counters summed across shards. Size is the
// total entry count.
func (s *Sharded[V]) Stats() Stats {
	var total Stats
	for i := range s.shards {
		total.add(s.shards[i].snapshot())
	}
	return total
}

// ShardStats returns each shard's counters in shard order, for per-shard
// gauges (/metrics) and balance diagnostics.
func (s *Sharded[V]) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].snapshot()
	}
	return out
}
