// Package cache implements the rich SDK's caching substrate (paper §2):
// responses from remote services are cached locally to avoid redundant
// service calls, cut latency, and keep applications running when a service
// is unreachable. It provides one cache, Sharded — a bounded LRU with a
// TTL, split into independently locked shards so concurrent hits for
// different keys take different locks — and request de-duplication
// (Group, Fill), whose fills a Clear that overtakes them cannot undo.
package cache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// ErrNotFound is returned by Get when the key is absent or expired.
var ErrNotFound = errors.New("cache: not found")

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

// shard is one independently locked LRU of a Sharded cache: a map for
// lookup and a list for recency, front = most recently used.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration // 0 means entries never expire
	clk      clock.Clock
	ll       *list.List
	items    map[string]*list.Element
	stats    Stats
}

type entry[V any] struct {
	key     string
	value   V
	expires time.Time // zero means no expiry
}

// init initializes a zero shard in place, so Sharded can lay its shards
// out in one contiguous slice without copying a mutex.
func (m *shard[V]) init(capacity int, o options) {
	m.capacity = capacity
	m.ttl = o.ttl
	m.clk = o.clk
	m.ll = list.New()
	m.items = make(map[string]*list.Element, capacity)
}

// get returns the cached value for key, or ErrNotFound if the key is
// absent or its entry has expired; an expired entry is removed.
func (m *shard[V]) get(key string) (V, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero V
	el, ok := m.items[key]
	if !ok {
		m.stats.Misses++
		return zero, ErrNotFound
	}
	en := el.Value.(*entry[V])
	if !en.expires.IsZero() && !m.clk.Now().Before(en.expires) {
		m.removeElement(el)
		m.stats.Expired++
		m.stats.Misses++
		return zero, ErrNotFound
	}
	m.ll.MoveToFront(el)
	m.stats.Hits++
	return en.value, nil
}

// peek is a lookup with no LRU or stats side effects.
func (m *shard[V]) peek(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero V
	el, ok := m.items[key]
	if !ok {
		return zero, false
	}
	en := el.Value.(*entry[V])
	if !en.expires.IsZero() && !m.clk.Now().Before(en.expires) {
		return zero, false
	}
	return en.value, true
}

// set stores value under key, evicting the LRU tail when the shard is
// over capacity. With gen non-nil it stores only while *gen still reads
// want; the check runs under the shard lock, which Clear takes after it
// bumps the generation, so no store lands after a Clear that it lost to.
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
	if el, ok := m.items[key]; ok {
		en := el.Value.(*entry[V])
		en.value = value
		en.expires = expires
		m.ll.MoveToFront(el)
		return
	}
	el := m.ll.PushFront(&entry[V]{key: key, value: value, expires: expires})
	m.items[key] = el
	if m.ll.Len() > m.capacity {
		m.removeElement(m.ll.Back())
		m.stats.Evictions++
	}
}

// remove deletes key if present, expired or not, and reports whether it
// was found.
func (m *shard[V]) remove(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		return false
	}
	m.removeElement(el)
	return true
}

func (m *shard[V]) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ll.Init()
	m.items = make(map[string]*list.Element, m.capacity)
}

func (m *shard[V]) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Size = m.ll.Len()
	return s
}

// removeElement must be called with the lock held.
func (m *shard[V]) removeElement(el *list.Element) {
	m.ll.Remove(el)
	delete(m.items, el.Value.(*entry[V]).key)
}
