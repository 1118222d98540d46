package cache

import (
	"container/list"
	"strconv"
	"testing"

	"repro/internal/xrand"
)

// zipfOp is one op of the store client's traffic against its read cache.
type zipfOp struct {
	key string
	get bool // a Get, which Sets the key on a miss; otherwise a Set
}

// zipfStream draws n ops of the store-mixed workload's shape: keys
// Zipf(1.1) over 4 096 names, 69% Get, 30% Set and 1% a key listing,
// which leaves the cache alone and is dropped here. It is seeded, so a
// replay is exact.
func zipfStream(seed int64, n int) []zipfOp {
	const keys = 4096
	names := make([]string, keys)
	for i := range names {
		names[i] = "obj-" + strconv.Itoa(i)
	}
	src := xrand.New(seed)
	z := xrand.NewZipf(src, 1.1, keys)
	ops := make([]zipfOp, 0, n)
	for len(ops) < n {
		u := src.Intn(100)
		if u >= 99 {
			continue
		}
		ops = append(ops, zipfOp{key: names[z.Next()], get: u < 69})
	}
	return ops
}

type getSetter interface {
	Get(key string) (int, error)
	Set(key string, value int)
}

// replay runs ops against c as remotestore.Cluster uses its read cache:
// a Get that misses reads the value remotely and Sets it. It returns the
// Get hits.
func replay(c getSetter, ops []zipfOp) (hits int) {
	for i, op := range ops {
		if op.get {
			if _, err := c.Get(op.key); err == nil {
				hits++
				continue
			}
		}
		c.Set(op.key, i)
	}
	return hits
}

// lruRef is the recency-ordered cache SIEVE replaced, kept as the
// reference the hit-share guard has to beat: a map and a list, front =
// most recently used.
type lruRef struct {
	capacity int
	ll       *list.List
	items    map[string]*list.Element
}

func newLRURef(capacity int) *lruRef {
	return &lruRef{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruRef) Get(key string) (int, error) {
	el, ok := c.items[key]
	if !ok {
		return 0, errNotFound
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[int]).value, nil
}

func (c *lruRef) Set(key string, value int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[int]).value = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[int]{key: key, value: value})
	if c.ll.Len() > c.capacity {
		delete(c.items, c.ll.Remove(c.ll.Back()).(*entry[int]).key)
	}
}

// The store-mixed client cache's hit share, without a clock: the seeded
// Zipf stream into a 256-entry, one-shard cache (one shard makes the count
// exact; the shard hash is seeded per cache) gets a pinned number of Get
// hits, more than the LRU reference gets on the same stream.
func TestSIEVEHitShareZipf(t *testing.T) {
	const capacity, n, wantHits = 256, 100_000, 52_543
	ops := zipfStream(1, n)
	gets := 0
	for _, op := range ops {
		if op.get {
			gets++
		}
	}
	c := NewSharded[int](capacity, withShards(1))
	hits := replay(c, ops)
	lru := replay(newLRURef(capacity), ops)
	t.Logf("%d Gets of %d ops: SIEVE hits %d (%.3f), LRU %d (%.3f)", gets, n, hits, float64(hits)/float64(gets), lru, float64(lru)/float64(gets))
	if hits != wantHits {
		t.Errorf("SIEVE Get hits = %d, want %d", hits, wantHits)
	}
	if hits <= lru {
		t.Errorf("SIEVE Get hits %d do not beat LRU's %d on the same stream", hits, lru)
	}
	if s := c.Stats(); s.Hits != uint64(hits) || s.Hits+s.Misses != uint64(gets) {
		t.Errorf("Stats %+v, want %d hits of %d lookups", s, hits, gets)
	}
}
