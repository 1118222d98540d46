package remotestore

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failover"
	"repro/internal/kvstore"
	"repro/internal/raceflag"
)

// TestCloudStoreShape is the tier-1 guard for the sharded cloud store: a
// sharded N=4/R=2 client must agree key-for-key with a map-backed oracle,
// show ≥2x aggregate write throughput at 4 nodes vs 1, and serve 100% of
// reads with one node killed. Over 1/2/4/8 capacity-limited nodes at
// R=min(2,N) (Scale1to8, one subtest per node count) every read returns
// its own key's value, killing one node mid-read-storm costs no read at
// N ≥ 2 and visibly costs reads at N=1, and 8 nodes read ≥2x and write
// ≥1.5x faster than 1.
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
	t.Run("Scale1to8", testShapeScale1to8)
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
		if _, err := tc.cl.Get(k); !errors.Is(err, errNotFound) {
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
func shapeServers(t *testing.T, n int, capacity int, latency time.Duration) ([]string, []*Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv := NewServer(nil, withCapacity(capacity))
		srv.SetLatency(latency)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		urls[i], servers[i] = hs.URL, srv
	}
	return urls, servers
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
			Breaker:  failover.BreakerConfig{Threshold: -1},
			Local:    kvstore.NewMemory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	urls1, _ := shapeServers(t, 1, capacity, latency)
	urls4, _ := shapeServers(t, 4, capacity, latency)
	urls4r2, _ := shapeServers(t, 4, capacity, latency)
	one := mkCluster(urls1, 1)
	fourR1 := mkCluster(urls4, 1)
	fourR2 := mkCluster(urls4r2, 2)

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

// The node-count sweep is E22 at its full scale: every node is a 4-wide,
// 2 ms backend (~2000 req/s), driven by 32 closed-loop callers — enough to
// saturate 8 nodes — over 240 keys, each holding its own value.
const (
	sweepCapacity = 4
	sweepLatency  = 2 * time.Millisecond
	sweepCallers  = 32
	sweepKeys     = 240
)

func sweepKey(i int) string   { return fmt.Sprintf("key-%03d", i%sweepKeys) }
func sweepValue(i int) string { return fmt.Sprintf("value-%d", i%sweepKeys) }

// newSweepCluster builds n sweep nodes behind a cluster at R=min(2,n) with
// no client cache, so every read reaches a node.
func newSweepCluster(t *testing.T, n int) (*Cluster, []*Server) {
	t.Helper()
	urls, servers := shapeServers(t, n, sweepCapacity, sweepLatency)
	cl, err := NewCluster(ClusterConfig{
		Nodes:     urls,
		Replicas:  2,
		Seed:      1,
		Workers:   2 * sweepCallers,
		CacheSize: 0,
		Retry:     failover.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		Breaker:   failover.BreakerConfig{Threshold: 4, Cooldown: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if want := min(2, n); cl.Replicas() != want {
		t.Fatalf("n=%d: replicas = %d, want %d", n, cl.Replicas(), want)
	}
	return cl, servers
}

// sweepDrive makes ops calls of fn from sweepCallers closed-loop callers,
// each taking the next index, and returns how long they took.
func sweepDrive(ops int, fn func(i int)) time.Duration {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	start := time.Now()
	for w := 0; w < sweepCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < ops; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sweepWrite puts every sweep key's own value through cl and returns how
// long the writes took.
func sweepWrite(t *testing.T, cl *Cluster) time.Duration {
	t.Helper()
	d := sweepDrive(sweepKeys, func(i int) {
		if err := cl.Put(sweepKey(i), []byte(sweepValue(i))); err != nil {
			t.Errorf("put %s: %v", sweepKey(i), err)
		}
	})
	if cl.Offline() {
		t.Fatal("the cluster went offline during the writes — they were queued, not stored")
	}
	return d
}

// sweepRead reads sweepKey(i) for i in [0, reads) and returns how long the
// reads took and how many returned that key's own value. before, when
// set, runs ahead of the i-th read.
func sweepRead(cl *Cluster, reads int, before func(i int)) (time.Duration, int) {
	var served atomic.Int64
	d := sweepDrive(reads, func(i int) {
		if before != nil {
			before(i)
		}
		if got, err := cl.Get(sweepKey(i)); err == nil && string(got) == sweepValue(i) {
			served.Add(1)
		}
	})
	return d, int(served.Load())
}

// testShapeScale1to8 is E22: one rig per node count, each taken through
// the same phases in one pass (sweepPass). Reads scale ~N (no replication
// cost) and writes ~N/R (ideal 4x at N=8, R=2); the timing half demands a
// real gain at 8 nodes, not the ideal, and is skipped under -race and
// -short.
func testShapeScale1to8(t *testing.T) {
	write := map[int]time.Duration{}
	read := map[int]time.Duration{}
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { write[n], read[n] = sweepPass(t, n) })
	}
	if raceflag.Enabled || testing.Short() {
		t.Log("timing-sensitive: the scaling gains are not asserted under -race or -short")
		return
	}
	if t.Failed() {
		return // a pass that failed timed nothing worth comparing
	}
	writeGain := float64(write[1]) / float64(write[8])
	readGain := float64(read[1]) / float64(read[8])
	t.Logf("8 nodes vs 1: writes %.2fx (ideal 4x), reads %.2fx (ideal 8x)", writeGain, readGain)
	if readGain < 2.0 {
		t.Errorf("8-node read gain = %.2fx, want >= 2x", readGain)
	}
	if writeGain < 1.5 {
		t.Errorf("8-node write gain = %.2fx, want >= 1.5x", writeGain)
	}
}

// sweepPass builds a rig of n sweep nodes and takes it through E22's
// phases: 240 timed writes; 480 timed reads, each of which must return its
// key's own value; and 240 reads with node 0 killed halfway through. From
// N=2 up every key has a live replica, so the kill costs no read and some
// reads fail over; at N=1 the reads issued after the kill are lost — if
// they were not, the kill never happened and the N ≥ 2 rows prove
// nothing. It returns how long the writes and the verified reads took.
func sweepPass(t *testing.T, n int) (write, read time.Duration) {
	cl, servers := newSweepCluster(t, n)
	write = sweepWrite(t, cl)
	const reads = 2 * sweepKeys
	read, served := sweepRead(cl, reads, nil)
	if served != reads {
		t.Errorf("%d/%d reads returned their key's value", served, reads)
	}
	const killReads = sweepKeys
	failovers := cl.Stats().ReadFailovers
	_, served = sweepRead(cl, killReads, func(i int) {
		if i == killReads/2 {
			servers[0].SetDown(true)
		}
	})
	failovers = cl.Stats().ReadFailovers - failovers
	switch {
	case n == 1 && served > killReads*9/10:
		t.Errorf("served %d/%d reads with its only node killed mid-run, want a visible loss", served, killReads)
	case n > 1 && served != killReads:
		t.Errorf("served %d/%d reads through the kill, want all", served, killReads)
	case n > 1 && failovers == 0:
		t.Errorf("recorded no read failovers despite a dead node")
	}
	return write, read
}
