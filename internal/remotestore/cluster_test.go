package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/failover"
	"repro/internal/kvstore"
	"repro/internal/metrics"
)

// testCluster bundles N store nodes with a sharded client over them. The
// per-node backing stores stay visible so tests can assert exactly where
// replicas landed.
type testCluster struct {
	servers []*Server
	stores  []kvstore.Store
	urls    []string
	cl      *Cluster
}

// fastRetry keeps failure paths quick and deterministic in unit tests.
var fastRetry = failover.RetryPolicy{MaxAttempts: 1}

func newTestCluster(t *testing.T, n int, mod func(*ClusterConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		st := kvstore.NewMemory()
		srv := NewServer(st)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		tc.stores = append(tc.stores, st)
		tc.servers = append(tc.servers, srv)
		tc.urls = append(tc.urls, hs.URL)
	}
	cfg := ClusterConfig{
		Nodes:    tc.urls,
		Replicas: 2,
		Seed:     1,
		Retry:    fastRetry,
		Breaker:  failover.BreakerConfig{Threshold: -1}, // off unless a test opts in
	}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	tc.cl = cl
	return tc
}

// nodeIndex maps a node URL back to its slot in the fixture.
func (tc *testCluster) nodeIndex(url string) int {
	for i, u := range tc.urls {
		if u == url {
			return i
		}
	}
	return -1
}

// holders returns which node indices have key in their backing store.
func (tc *testCluster) holders(key string) []int {
	var out []int
	for i, st := range tc.stores {
		if _, err := st.Get(key); err == nil {
			out = append(out, i)
		}
	}
	return out
}

func TestClusterRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))
		if err := tc.cl.Put(k, v); err != nil {
			t.Fatal(err)
		}
		got, err := tc.cl.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = (%q, %v)", k, got, err)
		}
	}
	if err := tc.cl.Delete("key-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.cl.Get("key-3"); !errors.Is(err, errNotFound) {
		t.Fatalf("after delete Get = %v, want ErrNotFound", err)
	}
}

func TestClusterReplicatesToOwners(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := tc.cl.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		owners := tc.cl.owners(k)
		if len(owners) != 2 {
			t.Fatalf("owners(%s) = %v, want 2", k, owners)
		}
		holders := tc.holders(k)
		if len(holders) != 2 {
			t.Fatalf("key %s held by %d nodes %v, want exactly its 2 owners", k, len(holders), holders)
		}
		for _, h := range holders {
			found := false
			for _, o := range owners {
				if tc.nodeIndex(o) == h {
					found = true
				}
			}
			if !found {
				t.Fatalf("key %s landed on node %d, not in owner set %v", k, h, owners)
			}
		}
	}
}

func TestClusterReadFailover(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) { c.CacheSize = 0 })
	key := "failover-key"
	if err := tc.cl.Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	primary := tc.cl.owners(key)[0]
	tc.servers[tc.nodeIndex(primary)].SetDown(true)
	got, err := tc.cl.Get(key)
	if err != nil || string(got) != "survives" {
		t.Fatalf("Get with primary down = (%q, %v)", got, err)
	}
	if tc.cl.Stats().ReadFailovers == 0 {
		t.Error("ReadFailovers not counted")
	}
	if tc.cl.Offline() {
		t.Error("a single dead replica must not flip the whole cluster client offline")
	}
}

func TestClusterNotFoundConsultsAllReplicas(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	key := "quorum-miss"
	// Simulate a write the primary missed (W<R world): plant the encoded
	// value only on the second owner.
	owners := tc.cl.owners(key)
	if err := tc.stores[tc.nodeIndex(owners[1])].Put(key, []byte("only-here")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.cl.Get(key)
	if err != nil || string(got) != "only-here" {
		t.Fatalf("Get = (%q, %v); a primary miss must fall through to the replica", got, err)
	}
	// A key on no replica is authoritatively absent.
	if _, err := tc.cl.Get("really-missing"); !errors.Is(err, errNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func TestClusterWriteQuorumOne(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) {
		c.WriteQuorum = 1
		c.CacheSize = 0
	})
	key := "w1-key"
	// One of the two owners is down; W=1 still succeeds via the other.
	tc.servers[tc.nodeIndex(tc.cl.owners(key)[0])].SetDown(true)
	if err := tc.cl.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if tc.cl.Offline() {
		t.Fatal("W=1 write with one live owner must not go offline")
	}
	got, err := tc.cl.Get(key)
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
}

func TestClusterQuorumLossQueuesWrite(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) { c.Local = kvstore.NewMemory() })
	for _, srv := range tc.servers {
		srv.SetDown(true)
	}
	if err := tc.cl.Put("k", []byte("queued")); err != nil {
		t.Fatalf("quorum-less Put = %v, want nil (queued)", err)
	}
	if !tc.cl.Offline() {
		t.Fatal("client should be offline after quorum loss")
	}
	if got := tc.cl.PendingWrites(); got != 1 {
		t.Fatalf("PendingWrites = %d, want 1", got)
	}
	// Local mirror still serves the read while offline.
	got, err := tc.cl.Get("k")
	if err != nil || string(got) != "queued" {
		t.Fatalf("offline Get = (%q, %v)", got, err)
	}
	for _, srv := range tc.servers {
		srv.SetDown(false)
	}
	pushed, err := tc.cl.Sync()
	if err != nil || pushed != 1 {
		t.Fatalf("Sync = (%d, %v), want (1, nil)", pushed, err)
	}
	if len(tc.holders("k")) != 2 {
		t.Fatalf("after sync key held by %v, want its 2 owners", tc.holders("k"))
	}
}

func TestClusterSyncPipelinesPerNode(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) { c.Local = kvstore.NewMemory() })
	tc.cl.SetOffline(true)
	const n = 40
	for i := 0; i < n; i++ {
		if err := tc.cl.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a few keys while offline; coalescing keeps one entry each.
	for i := 0; i < 5; i++ {
		if err := tc.cl.Put(fmt.Sprintf("key-%02d", i), []byte("final")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.cl.PendingWrites(); got != n {
		t.Fatalf("PendingWrites = %d, want %d", got, n)
	}
	pushed, err := tc.cl.Sync()
	if err != nil || pushed != n {
		t.Fatalf("Sync = (%d, %v), want (%d, nil)", pushed, err, n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if len(tc.holders(k)) != 2 {
			t.Fatalf("key %s on %v nodes after sync, want 2", k, tc.holders(k))
		}
		want := fmt.Sprintf("v%d", i)
		if i < 5 {
			want = "final"
		}
		got, gerr := tc.cl.Get(k)
		if gerr != nil || string(got) != want {
			t.Fatalf("Get(%s) = (%q, %v), want %q", k, got, gerr, want)
		}
	}
}

func TestClusterSyncFailureRequeues(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *ClusterConfig) { c.Local = kvstore.NewMemory() })
	tc.cl.SetOffline(true)
	for i := 0; i < 6; i++ {
		if err := tc.cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// R=2 over 2 nodes: every write needs both; one down means no write
	// reaches quorum.
	tc.servers[0].SetDown(true)
	pushed, err := tc.cl.Sync()
	if err == nil {
		t.Fatal("Sync with a node down should report the below-quorum writes")
	}
	if pushed != 0 {
		t.Fatalf("pushed = %d, want 0", pushed)
	}
	if got := tc.cl.PendingWrites(); got != 6 {
		t.Fatalf("PendingWrites = %d, want 6 (all requeued)", got)
	}
	if !tc.cl.Offline() {
		t.Fatal("client should be back offline after failed sync")
	}
	tc.servers[0].SetDown(false)
	if pushed, err = tc.cl.Sync(); err != nil || pushed != 6 {
		t.Fatalf("recovery Sync = (%d, %v), want (6, nil)", pushed, err)
	}
}

func TestClusterKeysMergeSortedDeduped(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	want := make([]string, 0, 25)
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("key-%02d", i)
		want = append(want, k)
		if err := tc.cl.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tc.cl.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Keys() not sorted: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %d keys %v, want %d — replicas must de-duplicate", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestClusterKeysMergeToleratesNodeError(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	for i := 0; i < 25; i++ {
		if err := tc.cl.Put(fmt.Sprintf("key-%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// R=2: one node returning transport errors mid-merge must not lose
	// keys (every key has a live replica) and must not error the call.
	tc.servers[2].SetDown(true)
	got, err := tc.cl.Keys()
	if err != nil {
		t.Fatalf("Keys with one node down = %v", err)
	}
	if len(got) != 25 {
		t.Fatalf("Keys with one node down returned %d keys, want 25", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("merge not sorted: %v", got)
	}
	// Two nodes down (= R) can orphan keys; the merge must refuse to
	// pretend it is complete.
	tc.servers[0].SetDown(true)
	if _, err := tc.cl.Keys(); err == nil {
		t.Fatal("Keys with R nodes down should fail rather than return a silently incomplete merge")
	}
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted([][]string{
		{"a", "c", "e"},
		{"b", "c", "d"},
		{},
		{"a", "e", "f"},
	})
	want := []string{"a", "b", "c", "d", "e", "f"}
	if len(got) != len(want) {
		t.Fatalf("mergeSorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeSorted = %v, want %v", got, want)
		}
	}
}

func TestClusterBreakerOpensAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) {
		c.Breaker = failover.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond}
		c.CacheSize = 0
	})
	key := "breaker-key"
	if err := tc.cl.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	primary := tc.cl.owners(key)[0]
	tc.servers[tc.nodeIndex(primary)].SetDown(true)
	// Enough failing reads to trip the primary's breaker.
	for i := 0; i < 3; i++ {
		if _, err := tc.cl.Get(key); err != nil {
			t.Fatalf("failover read %d: %v", i, err)
		}
	}
	states := tc.cl.BreakerStates()
	open := false
	for _, st := range states {
		if st.Service == primary && st.State != "closed" {
			open = true
		}
	}
	if !open {
		t.Fatalf("primary breaker did not open: %+v", states)
	}
	// Node heals; after the cooldown a probe closes the breaker again.
	tc.servers[tc.nodeIndex(primary)].SetDown(false)
	time.Sleep(80 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := tc.cl.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range tc.cl.BreakerStates() {
		if st.Service == primary && st.State != "closed" {
			t.Fatalf("breaker did not close after recovery: %+v", st)
		}
	}
}

func TestClusterCodecSharding(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) {
		c.Codec = codec.Chain{codec.Gzip{}, mustAES("cluster-test-passphrase")}
	})
	secret := []byte(strings.Repeat("personal knowledge entry. ", 50))
	if err := tc.cl.Put("s", secret); err != nil {
		t.Fatal(err)
	}
	holders := tc.holders("s")
	if len(holders) != 2 {
		t.Fatalf("encrypted key on %v nodes, want 2", holders)
	}
	// Encode-once fan-out: both replicas hold byte-identical ciphertext,
	// and neither holds plaintext.
	a, _ := tc.stores[holders[0]].Get("s")
	b, _ := tc.stores[holders[1]].Get("s")
	if !bytes.Equal(a, b) {
		t.Error("replicas hold different ciphertexts — value was re-encoded per node")
	}
	if bytes.Contains(a, secret[:16]) {
		t.Error("plaintext visible on a store node")
	}
	got, err := tc.cl.Get("s")
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("round trip = (%q..., %v)", truncate(got), err)
	}
}

func truncate(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

func mustAES(passphrase string) codec.Codec {
	c, err := codec.NewAESGCM(passphrase)
	if err != nil {
		panic(err)
	}
	return c
}

func TestClusterMetricsExposed(t *testing.T) {
	set := metrics.NewSet()
	tc := newTestCluster(t, 4, func(c *ClusterConfig) {
		c.Metrics = set
		c.CacheSize = 0
	})
	for i := 0; i < 10; i++ {
		if err := tc.cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.cl.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	tw := metrics.NewTextWriter(&buf)
	set.Expose(tw)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"cloudstore_node_requests_total",
		"cloudstore_fanout_latency_ns",
		"cloudstore_replication_lag_ns",
		"cloudstore_ring_nodes",
		"cloudstore_pending_writes",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	if !strings.Contains(out, `node="`+tc.urls[0]+`"`) {
		t.Errorf("per-node label missing:\n%s", out)
	}
	if !strings.Contains(out, "cloudstore_ring_nodes 4") {
		t.Errorf("ring gauge wrong:\n%s", out)
	}
}

func TestClusterHandlerGateway(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	gw := httptest.NewServer(tc.cl.Handler())
	defer gw.Close()
	// The gateway speaks the same protocol as a node, so a client that
	// takes it for its one node can talk to the whole cluster through it.
	c := oneNode(t, gw.URL, ClusterConfig{})
	if err := c.Put("via-gateway", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("via-gateway")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
	if len(tc.holders("via-gateway")) != 2 {
		t.Fatalf("gateway write on %v nodes, want 2", tc.holders("via-gateway"))
	}
	keys, err := c.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "via-gateway" {
		t.Fatalf("Keys = (%v, %v)", keys, err)
	}
	resp, err := http.Get(gw.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Nodes       []string `json:"nodes"`
		Replicas    int      `json:"replicas"`
		WriteQuorum int      `json:"writeQuorum"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) != 4 || info.Replicas != 2 || info.WriteQuorum != 2 {
		t.Fatalf("cluster info = %+v", info)
	}
}

func TestClusterContextCancel(t *testing.T) {
	tc := newTestCluster(t, 4, func(c *ClusterConfig) {
		c.Timeout = 30 * time.Second
		c.CacheSize = 0
		c.Local = kvstore.NewMemory()
	})
	if err := tc.cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, srv := range tc.servers {
		srv.SetLatency(10 * time.Second)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Cancelled reads fall through to the local mirror instead of hanging
	// on the injected latency.
	got, err := tc.cl.GetCtx(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("GetCtx = (%q, %v), want local-mirror fallback", got, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("GetCtx took %v — context cancellation not honoured", elapsed)
	}
}
