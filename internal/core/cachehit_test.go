package core

import (
	"context"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/service"
)

// TestCacheHitAllocsChainEqualsInline is the middleware chain's cost
// guard on the SDK's hottest path: a cache hit through the composed chain
// allocates exactly what a hit written inline — key, then probe — does,
// which is one allocation, the key. An extra stage allocation, a boxed
// option or a second key build shows here as a count, on any machine.
func TestCacheHitAllocsChainEqualsInline(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	client, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	svc := service.Func{
		Meta: service.Info{Name: "bench", Category: "bench"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: []byte("ok")}, nil
		},
	}
	if err := client.Register(svc, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := service.Request{Op: "analyze", Text: "Acme Corporation reported excellent quarterly earnings, and analysts " +
		"in Germany praised the remarkable growth of the technology market."}
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
