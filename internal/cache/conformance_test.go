package cache

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

// The conformance suite runs the cache's behavioural contract at one shard
// and at eight. strictLRU marks the one-shard cache, whose eviction follows
// a single global LRU list; a multi-shard cache tracks recency per shard,
// so the global-order subtests apply only to the single list. FuzzSharded
// checks per-shard order at both counts against a model.
type cacheImpl struct {
	name      string
	strictLRU bool
	shards    int
}

func (impl cacheImpl) mk(capacity int, opts ...Option) *Sharded[int] {
	return NewSharded[int](capacity, append(opts, withShards(impl.shards))...)
}

// withShards overrides the GOMAXPROCS-derived shard count; it is rounded up
// to a power of two and halved like the default.
func withShards(n int) Option {
	return func(o *options) { o.shards = n }
}

func cacheImpls() []cacheImpl {
	return []cacheImpl{{"sharded-1", true, 1}, {"sharded-8", false, 8}}
}

func forEachImpl(t *testing.T, f func(t *testing.T, impl cacheImpl)) {
	for _, impl := range cacheImpls() {
		t.Run(impl.name, func(t *testing.T) { f(t, impl) })
	}
}

func TestStoreGetSet(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(8)
		if _, err := m.Get("a"); !errors.Is(err, errNotFound) {
			t.Errorf("Get on empty = %v, want ErrNotFound", err)
		}
		m.Set("a", 1)
		v, err := m.Get("a")
		if err != nil || v != 1 {
			t.Errorf("Get = (%d, %v), want (1, nil)", v, err)
		}
		m.Set("a", 2) // update in place
		v, _ = m.Get("a")
		if v != 2 {
			t.Errorf("updated Get = %d, want 2", v)
		}
		if n := m.Stats().Size; n != 1 {
			t.Errorf("Size = %d, want 1", n)
		}
	})
}

func TestStoreLRUEviction(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		if !impl.strictLRU {
			t.Skip("global LRU order applies only to single-list caches")
		}
		m := impl.mk(3)
		m.Set("a", 1)
		m.Set("b", 2)
		m.Set("c", 3)
		// Touch "a" so "b" becomes the eviction candidate.
		if _, err := m.Get("a"); err != nil {
			t.Fatal(err)
		}
		m.Set("d", 4)
		if _, err := m.Get("b"); !errors.Is(err, errNotFound) {
			t.Error("b should have been evicted")
		}
		for _, k := range []string{"a", "c", "d"} {
			if _, err := m.Get(k); err != nil {
				t.Errorf("%s should survive: %v", k, err)
			}
		}
		if s := m.Stats(); s.Evictions != 1 {
			t.Errorf("Evictions = %d, want 1", s.Evictions)
		}
	})
}

func TestStoreTTLExpiry(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		v := clock.NewVirtual(time.Unix(0, 0))
		m := impl.mk(10, WithTTL(time.Minute), WithClock(v))
		m.Set("k", 7)
		if _, err := m.Get("k"); err != nil {
			t.Fatalf("fresh entry: %v", err)
		}
		v.Advance(59 * time.Second)
		if _, err := m.Get("k"); err != nil {
			t.Errorf("entry expired early: %v", err)
		}
		v.Advance(2 * time.Second)
		if _, err := m.Get("k"); !errors.Is(err, errNotFound) {
			t.Error("entry should have expired")
		}
		if s := m.Stats(); s.Expired != 1 {
			t.Errorf("Expired = %d, want 1", s.Expired)
		}
	})
}

func TestStoreDeleteContains(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(8)
		m.Set("a", 1)
		if !m.Delete("a") {
			t.Error("Delete(a) = false, want true")
		}
		if m.Delete("a") {
			t.Error("second Delete(a) = true, want false")
		}
		if _, err := m.Get("a"); !errors.Is(err, errNotFound) {
			t.Errorf("Get after Delete = %v, want ErrNotFound", err)
		}
		if n := m.Stats().Size; n != 0 {
			t.Errorf("Size after Delete = %d, want 0", n)
		}
	})
}

func TestStoreClear(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(8)
		m.Set("a", 1)
		m.Set("b", 2)
		m.Clear()
		if n := m.Stats().Size; n != 0 {
			t.Errorf("Size after Clear = %d", n)
		}
		if _, err := m.Get("a"); !errors.Is(err, errNotFound) {
			t.Error("entry survived Clear")
		}
	})
}

func TestStoreCapacityClamped(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(0)
		m.Set("a", 1)
		m.Set("b", 2)
		if n := m.Stats().Size; n != 1 {
			t.Errorf("Size = %d, want 1 (capacity clamped)", n)
		}
	})
}

func TestStoreHitRatio(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(8)
		m.Set("a", 1)
		if _, err := m.Get("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Get("missing"); err == nil {
			t.Fatal("expected miss")
		}
		if r := m.Stats().HitRatio(); r != 0.5 {
			t.Errorf("HitRatio = %v, want 0.5", r)
		}
	})
}

func TestStoreConcurrent(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		m := impl.mk(128)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					k := strconv.Itoa(i % 200)
					m.Set(k, i)
					if _, err := m.Get(k); err != nil && !errors.Is(err, errNotFound) {
						t.Errorf("Get error: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		if n := m.Stats().Size; n > 128 {
			t.Errorf("Size = %d exceeds capacity", n)
		}
	})
}

func TestStoreNeverExceedsCapacityProperty(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		// Property: after any sequence of Sets, Size <= capacity.
		f := func(keys []uint8, capRaw uint8) bool {
			capacity := int(capRaw%16) + 1
			m := impl.mk(capacity)
			for i, k := range keys {
				m.Set(strconv.Itoa(int(k)), i)
				if m.Stats().Size > capacity {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestStoreLastWriteWinsProperty(t *testing.T) {
	forEachImpl(t, func(t *testing.T, impl cacheImpl) {
		// Property: a Get immediately after Set returns the Set value.
		f := func(key uint8, vals []int) bool {
			m := impl.mk(8)
			k := strconv.Itoa(int(key))
			for _, v := range vals {
				m.Set(k, v)
				got, err := m.Get(k)
				if err != nil || got != v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// Per-shard capacity splitting: the shard capacities sum to the total, so
// no matter how keys distribute, the cache never exceeds its configured
// capacity and every shard respects its own slice.
func TestShardedEvictionDistribution(t *testing.T) {
	const capacity, shards = 64, 8
	s := NewSharded[int](capacity, withShards(shards))
	if got := len(s.shards); got != shards {
		t.Fatalf("%d shards, want %d", got, shards)
	}
	for i := 0; i < 50*capacity; i++ {
		s.Set(fmt.Sprintf("key-%d", i), i)
	}
	size := s.Stats().Size
	if size > capacity {
		t.Errorf("Size = %d exceeds total capacity %d", size, capacity)
	}
	per := s.ShardStats()
	total, evictions := 0, uint64(0)
	for i, ss := range per {
		if ss.Size > capacity/shards {
			t.Errorf("shard %d holds %d entries, per-shard capacity is %d", i, ss.Size, capacity/shards)
		}
		total += ss.Size
		evictions += ss.Evictions
	}
	if total != size {
		t.Errorf("sum of shard sizes = %d, Size = %d", total, size)
	}
	if evictions == 0 {
		t.Error("expected evictions after overfilling every shard")
	}
	if merged := s.Stats(); merged.Evictions != evictions {
		t.Errorf("merged Evictions = %d, shard sum = %d", merged.Evictions, evictions)
	}
}

// An uneven capacity spreads the remainder over the first shards and
// still sums exactly to the configured total.
func TestShardedUnevenCapacitySplit(t *testing.T) {
	s := NewSharded[int](10, withShards(4))
	for i, want := range []int{3, 3, 2, 2} {
		if got := s.shards[i].capacity; got != want {
			t.Errorf("shard %d capacity = %d, want %d", i, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		s.Set(strconv.Itoa(i), i)
	}
	if n := s.Stats().Size; n > 10 {
		t.Errorf("Size = %d exceeds capacity 10", n)
	}
}

// A shard count above the capacity is halved until every shard can hold
// at least one entry.
func TestShardedShardCountClamped(t *testing.T) {
	if got := len(NewSharded[int](4, withShards(64)).shards); got > 4 {
		t.Errorf("%d shards, want <= capacity 4", got)
	}
	if got := len(NewSharded[int](1).shards); got != 1 {
		t.Errorf("capacity 1: %d shards, want 1", got)
	}
}
