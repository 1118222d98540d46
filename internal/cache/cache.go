// Package cache implements the rich SDK's caching substrate (paper §2):
// responses from remote services are cached locally to avoid redundant
// service calls, cut latency, and keep applications running when a service
// is unreachable. It provides one cache, Sharded — a bounded cache with
// SIEVE eviction and a TTL, split into independently locked shards so
// concurrent hits for different keys take different locks — and request
// de-duplication (Group, Fill), whose fills a Clear that overtakes them
// cannot undo.
package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// errNotFound is returned by Get when the key is absent or expired.
var errNotFound = errors.New("cache: not found")

// Stats counts cache activity. Hits, Misses, Evictions, and Expired are
// monotonic activity counters: Delete and Clear remove entries without
// rewinding them. Size is computed live at Stats() time, so it always
// reflects the current entry count, expired entries no Get has reclaimed
// yet included.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Expired   uint64 // expired entries reclaimed by Get, the only reclaimer
	Size      int    // current number of entries, expired ones included
}

// HitRatio returns hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// add accumulates o into s, summing counters. Size adds too, so merged
// stats across shards report the total entry count.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Expired += o.Expired
	s.Size += o.Size
}

// options collects a cache's knobs. Options are deliberately non-generic:
// the same WithTTL value configures a cache of any value type.
type options struct {
	ttl    time.Duration
	clk    clock.Clock
	shards int // 0 sizes the shard count to the machine; set only by this package's tests
}

// Option configures a Sharded cache.
type Option func(*options)

// WithTTL sets the time-to-live applied to every Set; 0 (the default)
// means entries never expire.
func WithTTL(ttl time.Duration) Option {
	return func(o *options) { o.ttl = ttl }
}

// WithClock sets the clock used for expiry decisions.
func WithClock(c clock.Clock) Option {
	return func(o *options) {
		if c != nil {
			o.clk = c
		}
	}
}

// shard is one independently locked SIEVE cache of a Sharded cache: a map
// for lookup and the entries linked in insertion order. A hit only marks
// its entry visited; the hand walks from the oldest entry toward the
// newest to pick a victim (see evict). The links live in the entries, so
// an insert allocates one entry and nothing else.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration // 0 means entries never expire
	clk      clock.Clock
	items    map[string]*entry[V]
	newest   *entry[V]
	oldest   *entry[V]
	hand     *entry[V] // next entry evict examines; nil means the oldest
	stats    Stats
}

type entry[V any] struct {
	key     string
	value   V
	expires time.Time // zero means no expiry
	visited bool      // set by a hit or an overwrite, cleared as the hand passes
	newer   *entry[V] // nil for the newest entry
	older   *entry[V] // nil for the oldest entry
}

// init initializes a zero shard in place, so Sharded can lay its shards
// out in one contiguous slice without copying a mutex.
func (m *shard[V]) init(capacity int, o options) {
	m.capacity = capacity
	m.ttl = o.ttl
	m.clk = o.clk
	m.items = make(map[string]*entry[V], capacity)
}

// get returns the cached value for key, or errNotFound if the key is
// absent or its entry has expired; an expired entry is removed.
func (m *shard[V]) get(key string) (V, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero V
	en, ok := m.items[key]
	if !ok {
		m.stats.Misses++
		return zero, errNotFound
	}
	if !en.expires.IsZero() && !m.clk.Now().Before(en.expires) {
		m.unlink(en)
		m.stats.Expired++
		m.stats.Misses++
		return zero, errNotFound
	}
	en.visited = true
	m.stats.Hits++
	return en.value, nil
}

// peek is a lookup with no visited-bit or stats side effects.
func (m *shard[V]) peek(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero V
	en, ok := m.items[key]
	if !ok {
		return zero, false
	}
	if !en.expires.IsZero() && !m.clk.Now().Before(en.expires) {
		return zero, false
	}
	return en.value, true
}

// set stores value under key; a new key into a full shard first evicts
// one entry (see evict). With gen non-nil it stores only while *gen still
// reads want; the check runs under the shard lock, which Clear takes after
// it bumps the generation, so no store lands after a Clear that it lost to.
func (m *shard[V]) set(key string, value V, gen *atomic.Uint64, want uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != nil && gen.Load() != want {
		return
	}
	var expires time.Time
	if m.ttl > 0 {
		expires = m.clk.Now().Add(m.ttl)
	}
	if en, ok := m.items[key]; ok {
		en.value = value
		en.expires = expires
		en.visited = true
		return
	}
	if len(m.items) >= m.capacity {
		m.evict()
	}
	en := &entry[V]{key: key, value: value, expires: expires, older: m.newest}
	if m.newest != nil {
		m.newest.newer = en
	} else {
		m.oldest = en
	}
	m.newest = en
	m.items[key] = en
}

// evict removes one entry by SIEVE (Zhang et al., NSDI '24): the hand
// walks from the oldest entry toward the newest, wrapping to the oldest
// after the newest, clears each visited bit it passes and evicts the
// first entry whose bit is clear. The hand stays where it stopped, so
// the next eviction resumes there. Must be called with the lock held on
// a non-empty shard.
func (m *shard[V]) evict() {
	en := m.hand
	if en == nil {
		en = m.oldest
	}
	for en.visited {
		en.visited = false
		if en = en.newer; en == nil {
			en = m.oldest
		}
	}
	m.hand = en
	m.unlink(en) // moves the hand on to the next newer entry
	m.stats.Evictions++
}

// remove deletes key if present, expired or not, and reports whether it
// was found.
func (m *shard[V]) remove(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	en, ok := m.items[key]
	if !ok {
		return false
	}
	m.unlink(en)
	return true
}

func (m *shard[V]) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items = make(map[string]*entry[V], m.capacity)
	m.newest, m.oldest, m.hand = nil, nil, nil
}

func (m *shard[V]) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Size = len(m.items)
	return s
}

// unlink removes en from the shard; it must be called with the lock held.
// Removing the entry under the hand moves the hand one step on, to the
// next newer entry.
func (m *shard[V]) unlink(en *entry[V]) {
	if en == m.hand {
		m.hand = en.newer
	}
	if en.newer != nil {
		en.newer.older = en.older
	} else {
		m.newest = en.older
	}
	if en.older != nil {
		en.older.newer = en.newer
	} else {
		m.oldest = en.newer
	}
	delete(m.items, en.key)
}
