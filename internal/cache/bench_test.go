package cache

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

func BenchmarkShardedGetHit(b *testing.B) {
	// 2x capacity: the hash split would otherwise evict from overfull
	// shards (see BenchmarkCacheHitParallel).
	m := NewSharded[int](2048)
	for i := 0; i < 1024; i++ {
		m.Set(strconv.Itoa(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Get(strconv.Itoa(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedGetMiss(b *testing.B) {
	m := NewSharded[int](64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Get("absent")
	}
}

func BenchmarkShardedSetWithEviction(b *testing.B) {
	m := NewSharded[int](256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(strconv.Itoa(i), i)
	}
}

func BenchmarkShardedParallel(b *testing.B) {
	m := NewSharded[int](2048)
	for i := 0; i < 1024; i++ {
		m.Set(strconv.Itoa(i), i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := strconv.Itoa(i % 1024)
			if i%8 == 0 {
				m.Set(key, i)
			} else {
				_, _ = m.Get(key)
			}
			i++
		}
	})
}

// BenchmarkCacheHitParallel measures the pure hit path of a one-shard cache
// (a single mutex) against the default shard count at 1-, 8-, and
// 64-goroutine parallelism. b.RunParallel drives exactly the requested
// goroutine count by clamping GOMAXPROCS to the target (never above
// NumCPU) and scaling SetParallelism to make up the difference, so
// "goroutines=64" really is 64 goroutines hammering the hit path.
func BenchmarkCacheHitParallel(b *testing.B) {
	// Twice the key count in capacity: keys spread over shards by hash,
	// so an exactly-full cache would evict from the shards the split
	// happens to overfill. The benchmark measures the hit path, not
	// eviction behaviour.
	const nkeys = 4096
	impls := []struct {
		name   string
		shards int // 0: the GOMAXPROCS-derived default
	}{{"one-shard", 1}, {"sharded", 0}}
	for _, goroutines := range []int{1, 8, 64} {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("goroutines=%d/impl=%s", goroutines, impl.name), func(b *testing.B) {
				m := NewSharded[int](2*nkeys, withShards(impl.shards))
				keys := make([]string, nkeys)
				for i := range keys {
					keys[i] = "bench-key-" + strconv.Itoa(i)
					m.Set(keys[i], i)
				}
				procs := goroutines
				if n := runtime.NumCPU(); procs > n {
					procs = n
				}
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				b.SetParallelism((goroutines + procs - 1) / procs)
				var ctr atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Offset each goroutine so they spread over the key
					// space instead of marching in lockstep.
					i := int(ctr.Add(1)) * 521
					for pb.Next() {
						if _, err := m.Get(keys[i&(nkeys-1)]); err != nil {
							b.Fatal(err)
						}
						i += 7
					}
				})
			})
		}
	}
}

// BenchmarkShardedZipf replays TestSIEVEHitShareZipf's stream — the
// store-mixed client cache's traffic — into the same 256-entry one-shard
// cache, a Get that misses Setting its key, and reports the Get hits per
// op beside the time.
func BenchmarkShardedZipf(b *testing.B) {
	ops := zipfStream(1, 1<<16)
	m := NewSharded[int](256, withShards(1))
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(ops) {
		hits += replay(m, ops[:min(n, len(ops))])
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}
