package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/raceflag"
	"repro/internal/service"
)

// benchDoc is a representative analysis payload (the quickstart document).
// The cache key hashes the whole request, so the fast path's fixed costs
// are judged against a realistic document rather than a degenerate
// few-byte string.
const benchDoc = "Acme Corporation reported excellent quarterly earnings, and analysts " +
	"in Germany praised the remarkable growth of the technology market."

// benchService answers every request with the same two bytes.
func benchService() service.Service {
	return service.Func{
		Meta: service.Info{Name: "bench", Category: "bench"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: []byte("ok")}, nil
		},
	}
}

// newBenchClient is a client with benchService registered as cacheable.
func newBenchClient(tb testing.TB, cfg Config) *Client {
	tb.Helper()
	client, err := NewClient(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	if err := client.Register(benchService(), WithCacheable()); err != nil {
		tb.Fatal(err)
	}
	return client
}

// TestCacheHitAllocsChainEqualsInline is the middleware chain's cost
// guard on the SDK's hottest path: a cache hit through the composed chain
// allocates exactly what a hit written inline — key, then probe — does,
// which is one allocation, the key. An extra stage allocation, a boxed
// option or a second key build shows here as a count, on any machine.
func TestCacheHitAllocsChainEqualsInline(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	client := newBenchClient(t, Config{})
	ctx := context.Background()
	req := service.Request{Op: "analyze", Text: benchDoc}
	if _, err := client.Invoke(ctx, "bench", req); err != nil {
		t.Fatal(err)
	}
	chain := testing.AllocsPerRun(200, func() {
		if _, err := client.Invoke(ctx, "bench", req); err != nil {
			t.Fatal(err)
		}
	})
	inline := testing.AllocsPerRun(200, func() {
		if _, err := client.memcache.Get(req.CacheKey("svc:bench:")); err != nil {
			t.Fatal(err)
		}
	})
	if chain != inline || chain != 1 {
		t.Errorf("a cache hit allocates %v times through the chain and %v inline, want 1 each: the key", chain, inline)
	}
	if st := client.CacheStats(); st.Hits < 400 {
		t.Errorf("cache stats %+v: the hits did not hit", st)
	}
}

// BenchmarkCacheHit compares the middleware chain's cache-hit fast path
// ("pipeline") against a hand-inlined replica of the pre-pipeline
// monolithic Invoke ("seed-inline"). The two sub-benchmarks bound the cost
// of the chain's indirection on the hottest path in the SDK;
// TestCacheHitAllocsChainEqualsInline guards what it allocates.
func BenchmarkCacheHit(b *testing.B) {
	req := service.Request{Op: "analyze", Text: benchDoc}
	run := func(invoke func(service.Request) (service.Response, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := invoke(req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("pipeline", func(b *testing.B) { run(newPipelineCacheHit(b))(b) })
	b.Run("seed-inline", func(b *testing.B) { run(newSeedInlineCacheHit(b))(b) })
}

// newPipelineCacheHit primes the client's cache and returns a closure
// hitting it through the full middleware chain.
func newPipelineCacheHit(tb testing.TB) func(service.Request) (service.Response, error) {
	tb.Helper()
	client := newBenchClient(tb, Config{})
	ctx := context.Background()
	if _, err := client.Invoke(ctx, "bench", service.Request{Op: "analyze", Text: benchDoc}); err != nil {
		tb.Fatal(err)
	}
	return func(req service.Request) (service.Response, error) {
		return client.Invoke(ctx, "bench", req)
	}
}

// seedInvokeOpts mirrors the seed monolith's invokeOpts.
type seedInvokeOpts struct {
	noCache bool
}

// newSeedInlineCacheHit replicates the pre-pipeline monolithic Invoke's
// cache-hit path line for line: the variadic option loop (whose &io forced
// a heap allocation on every call, options or not), a mutex-guarded
// registration lookup, the "svc:"+name+":" key concatenation, and a direct
// cache Get — no middleware indirection. The cache itself is the same
// sharded LRU the Client constructs, so the comparison isolates the
// chain's indirection.
func newSeedInlineCacheHit(tb testing.TB) func(service.Request) (service.Response, error) {
	tb.Helper()
	type seedReg struct {
		svc       service.Service
		cacheable bool
	}
	var mu sync.Mutex
	regs := map[string]*seedReg{"bench": {svc: benchService(), cacheable: true}}
	mem := cache.NewSharded[service.Response](4096)
	flight := cache.NewGroup[service.Response]()
	ctx := context.Background()
	name := "bench"
	seedInvoke := func(req service.Request, opts ...func(*seedInvokeOpts)) (service.Response, error) {
		var io seedInvokeOpts
		for _, o := range opts {
			o(&io)
		}
		mu.Lock()
		reg := regs[name]
		mu.Unlock()
		useCache := reg.cacheable && !io.noCache
		key := req.CacheKey("svc:" + name + ":")
		if useCache {
			if resp, err := mem.Get(key); err == nil {
				return resp, nil
			}
			resp, err, _ := flight.Do(key, func() (service.Response, error) {
				if resp, err := mem.Get(key); err == nil {
					return resp, nil
				}
				resp, err := reg.svc.Invoke(ctx, req)
				if err != nil {
					return service.Response{}, err
				}
				mem.Set(key, resp)
				return resp, nil
			})
			return resp, err
		}
		return reg.svc.Invoke(ctx, req)
	}
	invoke := func(req service.Request) (service.Response, error) { return seedInvoke(req) }
	if _, err := invoke(service.Request{Op: "analyze", Text: benchDoc}); err != nil {
		tb.Fatal(err)
	}
	return invoke
}
