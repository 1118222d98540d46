package cache

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
)

// fuzzKeys mixes keys under 8 bytes (FNV-1a shard pick) with keys of the
// SDK's shape (sampled head/tail shard pick), two of which share head,
// tail and length and so always share a shard.
var fuzzKeys = []string{
	"a", "b", "k1", "key-2", "x7", "shard",
	"svc:nlu-alpha:00000000000000000000000000000001",
	"svc:nlu-alpha:00000000000000000000000000000002",
	"svc:nlu-beta:0123456789abcdef0123456789abcdef",
	"cat:nlu:fedcba9876543210fedcba9876543210",
	"svc:nlu-alpha:0a000000000000000000000000000001",
	"svc:nlu-alpha:0b000000000000000000000000000001",
}

// The fuzz ops. Each op is two bytes: the op (mod fuzzOps) and its argument,
// which picks the key or the clock step.
const (
	opSet = iota
	opGet
	opDelete
	opClear
	opAdvance
	opFill       // fill returns the op's value
	opFillClears // fill clears the cache, then returns the op's value
	opFillFails  // fill returns an error
	fuzzOps
)

// modelEntry and modelShard are the model: per shard a map from key to
// entry, a slice of keys from oldest to newest insertion (the hand's walk
// order) and the hand as an index into that slice.
type modelEntry struct {
	value   int
	expires time.Time // zero means no expiry
	visited bool
}

type modelShard struct {
	capacity int
	entries  map[string]modelEntry
	order    []string // oldest first
	hand     int      // index in order of the entry the next eviction examines first
	stats    Stats
}

func (m *modelShard) touch(key string) {
	e := m.entries[key]
	e.visited = true
	m.entries[key] = e
}

// drop removes key; the hand keeps pointing at the same entry, or at the
// next newer one if key was under it, wrapping to the oldest past the end.
func (m *modelShard) drop(key string) {
	delete(m.entries, key)
	i := slices.Index(m.order, key)
	m.order = slices.Delete(m.order, i, i+1)
	if i < m.hand {
		m.hand--
	}
	if m.hand == len(m.order) {
		m.hand = 0
	}
}

// evict is SIEVE written out over the slice: clear visited bits from the
// hand on, wrapping at the newest, and drop the first unvisited entry.
func (m *modelShard) evict() {
	for {
		key := m.order[m.hand]
		e := m.entries[key]
		if !e.visited {
			m.drop(key)
			m.stats.Evictions++
			return
		}
		e.visited = false
		m.entries[key] = e
		m.hand = (m.hand + 1) % len(m.order)
	}
}

func (m *modelShard) live(key string, now time.Time) (modelEntry, bool) {
	e, ok := m.entries[key]
	return e, ok && (e.expires.IsZero() || now.Before(e.expires))
}

func (m *modelShard) get(key string, now time.Time) (int, bool) {
	e, live := m.live(key, now)
	if _, present := m.entries[key]; present && !live {
		m.drop(key)
		m.stats.Expired++
	}
	if !live {
		m.stats.Misses++
		return 0, false
	}
	m.touch(key)
	m.stats.Hits++
	return e.value, true
}

func (m *modelShard) set(key string, value int, expires time.Time) {
	_, present := m.entries[key]
	if !present {
		if len(m.order) == m.capacity {
			m.evict()
		}
		m.order = append(m.order, key)
	}
	m.entries[key] = modelEntry{value, expires, present}
}

// FuzzSharded holds a Sharded cache to a model, op by op: Set, Get, Delete,
// Clear, a step of the virtual clock, and Fill — plain, failing, and one
// whose fill clears the cache first, which must then not cache its result.
// The first byte picks one shard (a single SIEVE list) or eight and the
// capacity, the second the TTL. After every op each shard's entries,
// insertion order, visited bits, hand position and Stats must equal its
// model shard, partitioned with the cache's own shard function, and Stats
// must be their sum. The named seeds under testdata/fuzz/FuzzSharded cover
// eviction order (the lru-order-* files predate SIEVE and replay as
// plain op sequences), the hand across evictions, deletes and expiry, the
// capacity bound and split, last write wins, TTL expiry, the hit ratio and
// a Clear overtaking a fill.
func FuzzSharded(f *testing.F) {
	f.Add([]byte{0x04, 0x00, opSet, 0, opSet, 1, opGet, 0, opSet, 2, opGet, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shards, capacity := 1, 1+int(data[0]>>1)%24
		if data[0]&1 == 1 {
			shards = 8
		}
		ttl := time.Duration(data[1]%4) * time.Second
		data = data[2:]

		clk := clock.NewVirtual(time.Unix(0, 0))
		c := NewSharded[int](capacity, WithTTL(ttl), WithClock(clk), withShards(shards))
		g := NewGroup[int]()
		n := shards
		for n > capacity {
			n >>= 1
		}
		if len(c.shards) != n {
			t.Fatalf("capacity %d with %d shards asked: %d shards, want %d", capacity, shards, len(c.shards), n)
		}
		model := make([]modelShard, n)
		for i := range model {
			model[i] = modelShard{capacity: capacity / n, entries: map[string]modelEntry{}}
			if i < capacity%n {
				model[i].capacity++
			}
			if c.shards[i].capacity != model[i].capacity {
				t.Fatalf("shard %d of %d takes %d of capacity %d, want %d", i, n, c.shards[i].capacity, capacity, model[i].capacity)
			}
		}
		owner := func(key string) *modelShard {
			sh := c.shard(key)
			for i := range c.shards {
				if sh == &c.shards[i] {
					return &model[i]
				}
			}
			t.Fatalf("key %q maps to no shard", key)
			return nil
		}
		clearModel := func() {
			for i := range model {
				model[i].entries = map[string]modelEntry{}
				model[i].order = nil
				model[i].hand = 0
			}
		}
		boom := errors.New("fill failed")

		for i := 0; len(data) >= 2; i, data = i+1, data[2:] {
			op, arg := data[0]%fuzzOps, data[1]
			key := fuzzKeys[int(arg)%len(fuzzKeys)]
			ms := owner(key)
			now := clk.Now()
			var expires time.Time
			if ttl > 0 {
				expires = now.Add(ttl)
			}
			switch op {
			case opSet:
				c.Set(key, i)
				ms.set(key, i, expires)
			case opGet:
				v, err := c.Get(key)
				want, ok := ms.get(key, now)
				if ok != (err == nil) || (ok && v != want) {
					t.Fatalf("op %d: Get(%q) = (%d, %v), model (%d, %v)", i, key, v, err, want, ok)
				}
			case opDelete:
				_, want := ms.entries[key]
				if want {
					ms.drop(key)
				}
				if got := c.Delete(key); got != want {
					t.Fatalf("op %d: Delete(%q) = %v, model %v", i, key, got, want)
				}
			case opClear:
				c.Clear()
				clearModel()
			case opAdvance:
				clk.Advance(time.Duration(arg%8) * 250 * time.Millisecond)
			case opFill, opFillClears, opFillFails:
				called := false
				v, err := Fill(context.Background(), c, g, key, func() (int, error) {
					called = true
					switch op {
					case opFillClears:
						c.Clear()
					case opFillFails:
						return 0, boom
					}
					return i, nil
				})
				e, live := ms.live(key, now)
				switch {
				case live:
					if called || err != nil || v != e.value {
						t.Fatalf("op %d: Fill(%q) over a live entry = (%d, %v), fill called %v; want (%d, nil) without a fill", i, key, v, err, called, e.value)
					}
				case op == opFillFails:
					if !errors.Is(err, boom) {
						t.Fatalf("op %d: failing Fill(%q) = (%d, %v), want the fill's error", i, key, v, err)
					}
				default:
					if !called || err != nil || v != i {
						t.Fatalf("op %d: Fill(%q) = (%d, %v), fill called %v; want (%d, nil)", i, key, v, err, called, i)
					}
					if op == opFillClears {
						clearModel()
					} else {
						ms.set(key, i, expires)
					}
				}
			}

			var total Stats
			for s := range c.shards {
				sh, m := &c.shards[s], &model[s]
				var order []string
				hand := -1 // a nil hand starts at the oldest entry, index 0
				if sh.hand == nil {
					hand = 0
				}
				var prev *entry[int]
				for en := sh.oldest; en != nil; prev, en = en, en.newer {
					if en.older != prev || sh.items[en.key] != en {
						t.Fatalf("op %d: shard %d: %q is linked after the wrong entry or missing from the map", i, s, en.key)
					}
					if want := m.entries[en.key]; en.value != want.value || !en.expires.Equal(want.expires) || en.visited != want.visited {
						t.Fatalf("op %d: shard %d holds %q = (%d, %v, visited %v), model (%d, %v, visited %v)", i, s, en.key, en.value, en.expires, en.visited, want.value, want.expires, want.visited)
					}
					if en == sh.hand {
						hand = len(order)
					}
					order = append(order, en.key)
				}
				if !slices.Equal(order, m.order) || sh.newest != prev || len(sh.items) != len(order) {
					t.Fatalf("op %d: shard %d insertion order %q (newest %p, map %d), model %q", i, s, order, sh.newest, len(sh.items), m.order)
				}
				if hand < 0 {
					t.Fatalf("op %d: shard %d hand points at no entry of %q", i, s, order)
				}
				if hand != m.hand {
					t.Fatalf("op %d: shard %d hand at %d of %q, model %d", i, s, hand, order, m.hand)
				}
				want := m.stats
				want.Size = len(m.order)
				if got := c.ShardStats()[s]; got != want {
					t.Fatalf("op %d: shard %d stats %+v, model %+v", i, s, got, want)
				}
				if want.Size > m.capacity {
					t.Fatalf("op %d: shard %d holds %d entries over its capacity %d", i, s, want.Size, m.capacity)
				}
				total.add(want)
			}
			if got := c.Stats(); got != total {
				t.Fatalf("op %d: Stats %+v, model %+v", i, got, total)
			}
		}
	})
}
