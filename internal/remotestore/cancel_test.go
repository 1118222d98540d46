package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failover"
	"repro/internal/kvstore"
	"repro/internal/metrics"
)

// nodeErrors sums cloudstore_node_errors_total over tc's nodes.
func nodeErrors(set *metrics.Set, tc *testCluster) uint64 {
	var total uint64
	for _, url := range tc.urls {
		total += set.Counter("cloudstore_node_errors_total", "", metrics.Label{Name: "node", Value: url}).Value()
	}
	return total
}

// A caller that gives up on a write has learnt nothing about the store: the
// write fails with the context's error, and the client neither queues it,
// nor goes offline, nor holds it against the nodes.
func TestCancelledWriteIsNotAnOutage(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel() // a node sleeps out its latency before it reads a PUT's body
			set := metrics.NewSet()
			mirror := kvstore.NewMemory()
			tc := newTestCluster(t, n, func(c *ClusterConfig) {
				c.Breaker = failover.BreakerConfig{Threshold: 4, Cooldown: time.Minute}
				c.Timeout = 30 * time.Second
				c.CacheSize, c.Local, c.Metrics = 16, mirror, set
			})
			if err := tc.cl.Put("k", []byte("old")); err != nil {
				t.Fatal(err)
			}
			for _, srv := range tc.servers {
				srv.SetLatency(time.Second)
			}
			// One more than the breaker's threshold.
			for i := 0; i < 5; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				write := func() error { return tc.cl.PutCtx(ctx, "k", []byte("new")) }
				if i%2 == 1 {
					write = func() error { return tc.cl.deleteCtx(ctx, fmt.Sprintf("other-%d", i)) }
				}
				start := time.Now()
				err := write()
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("write %d under an expired context = %v, want context.DeadlineExceeded", i, err)
				}
				if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
					t.Fatalf("write %d took %v, the nodes' whole latency", i, elapsed)
				}
			}
			if tc.cl.Offline() || tc.cl.PendingWrites() != 0 {
				t.Errorf("offline %v with %d writes queued, want online and none", tc.cl.Offline(), tc.cl.PendingWrites())
			}
			for _, st := range tc.cl.BreakerStates() {
				if st.State != "closed" || st.Consecutive != 0 {
					t.Errorf("breaker of %s: %s after %d failures, want closed after none", st.Service, st.State, st.Consecutive)
				}
			}
			if got := nodeErrors(set, tc); got != 0 {
				t.Errorf("cloudstore_node_errors_total = %d, want 0", got)
			}
			// The abandoned Put left the cache and the mirror with what the
			// store holds.
			for _, srv := range tc.servers {
				srv.SetLatency(0)
			}
			before := tc.cl.Stats().CacheHits
			if got, err := tc.cl.Get("k"); err != nil || string(got) != "old" {
				t.Errorf("Get after the abandoned Put = (%q, %v), want \"old\"", got, err)
			}
			if tc.cl.Stats().CacheHits != before {
				t.Error("the abandoned Put left its key in the client cache")
			}
			if got, err := mirror.Get("k"); err != nil || string(got) != "old" {
				t.Errorf("mirror holds (%q, %v), want \"old\"", got, err)
			}
		})
	}
}

// The http.Client's own timeout, with the caller still waiting, is the node
// failing to answer: it counts, and the write queues.
func TestNodeTimeoutIsStillAnOutage(t *testing.T) {
	t.Parallel()
	set := metrics.NewSet()
	tc := newTestCluster(t, 1, func(c *ClusterConfig) {
		c.Timeout = 30 * time.Millisecond
		c.Metrics = set
	})
	tc.servers[0].SetLatency(time.Second)
	if err := tc.cl.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put to a node that timed out = %v, want nil (queued)", err)
	}
	if !tc.cl.Offline() || tc.cl.PendingWrites() != 1 {
		t.Errorf("offline %v with %d writes queued, want offline and one", tc.cl.Offline(), tc.cl.PendingWrites())
	}
	if got := nodeErrors(set, tc); got != 1 {
		t.Errorf("cloudstore_node_errors_total = %d, want 1", got)
	}
}

// Through the gateway the caller's context is the HTTP request's: one client
// hanging up mid-PUT must not take the gateway offline for everyone else.
func TestGatewayClientHangUpIsNotAnOutage(t *testing.T) {
	t.Parallel()
	tc := newTestCluster(t, 3, func(c *ClusterConfig) { c.Timeout = 30 * time.Second })
	for _, srv := range tc.servers {
		srv.SetLatency(time.Second)
	}
	handler := tc.cl.Handler()
	served := make(chan struct{}, 1)
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
		if r.Method == http.MethodPut {
			served <- struct{}{}
		}
	}))
	defer gw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, gw.URL+"/kv/k", bytes.NewReader([]byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("PUT answered %d before its 30ms context ran out, under 1s of node latency", resp.StatusCode)
	}
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the gateway is still serving a PUT whose client hung up")
	}
	resp, err := http.Get(gw.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Offline bool `json:"offline"`
		Pending int  `json:"pending"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Offline || info.Pending != 0 {
		t.Errorf("/cluster after a client hung up mid-PUT: %+v, want online with nothing queued", info)
	}
}

// An abandoned op on a tripped breaker may have been its half-open probe,
// and only Record frees the probe slot: the breaker must open again for a
// cooldown, not stay half-open for good.
func TestAbandonedProbeFreesBreaker(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	srv, c, _ := newPair(t, ClusterConfig{
		Clock: clk, Retry: fastRetry, Timeout: 30 * time.Second,
		Breaker: failover.BreakerConfig{Threshold: 1, Cooldown: time.Second},
	})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if _, err := c.Get("k"); err == nil {
		t.Fatal("Get from a node that is down returned nil")
	}
	srv.SetDown(false)
	srv.SetLatency(time.Second)
	clk.Advance(time.Second) // cooldown over: the next op is the probe
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.GetCtx(ctx, "k"); err == nil {
		t.Fatal("GetCtx under an expired context returned nil")
	}
	srv.SetLatency(0)
	if _, err := c.Get("k"); err == nil {
		t.Error("Get right after the abandoned probe went through, want the breaker open for a new cooldown")
	}
	clk.Advance(time.Second)
	if got, err := c.Get("k"); err != nil || string(got) != "v" {
		t.Errorf("Get a cooldown after the abandoned probe = (%q, %v), want \"v\"", got, err)
	}
	for _, st := range c.BreakerStates() {
		if st.State != "closed" {
			t.Errorf("breaker of %s is %s after a served probe, want closed", st.Service, st.State)
		}
	}
}
