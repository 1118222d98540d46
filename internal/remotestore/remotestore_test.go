package remotestore

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/failover"
	"repro/internal/kvstore"
)

// oneNode returns the client for the single store node at url: a cluster
// like any other, with whatever cfg leaves unset at the cluster's defaults.
func oneNode(t *testing.T, url string, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.Nodes = []string{url}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func newPair(t *testing.T, cfg ClusterConfig) (*Server, *Cluster, *httptest.Server) {
	t.Helper()
	srv := NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, oneNode(t, hs.URL, cfg), hs
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{})
	if err := c.Put("k1", []byte("value one")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k1")
	if err != nil || string(v) != "value one" {
		t.Errorf("Get = (%q, %v)", v, err)
	}
	if err := c.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k1"); !errors.Is(err, errNotFound) {
		t.Errorf("after delete Get = %v, want ErrNotFound", err)
	}
}

func TestGetMissing(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{})
	if _, err := c.Get("never"); !errors.Is(err, errNotFound) {
		t.Errorf("error = %v, want ErrNotFound", err)
	}
}

func TestKeys(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{})
	for _, k := range []string{"b", "a", "c"} {
		if err := c.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "a" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestClientCacheAvoidsRemoteGets(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{CacheSize: 16})
	if err := c.Put("hot", []byte("data")); err != nil {
		t.Fatal(err)
	}
	before := srv.Requests()
	for i := 0; i < 10; i++ {
		if _, err := c.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Requests() != before {
		t.Errorf("remote requests grew by %d, want 0 (cache)", srv.Requests()-before)
	}
	if st := c.Stats(); st.CacheHits != 10 {
		t.Errorf("CacheHits = %d, want 10", st.CacheHits)
	}
}

func TestEncryptionHidesPlaintextFromServer(t *testing.T) {
	enc, err := codec.NewAESGCM("kb secret")
	if err != nil {
		t.Fatal(err)
	}
	backing := kvstore.NewMemory()
	srv := NewServer(backing)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := oneNode(t, hs.URL, ClusterConfig{Codec: enc})
	secret := []byte("very confidential fact")
	if err := c.Put("s", secret); err != nil {
		t.Fatal(err)
	}
	stored, err := backing.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stored, secret) {
		t.Error("plaintext visible to the remote store")
	}
	got, err := c.Get("s")
	if err != nil || !bytes.Equal(got, secret) {
		t.Errorf("round trip = (%q, %v)", got, err)
	}
}

func TestCompressionReducesBytesSent(t *testing.T) {
	srvPlain, cPlain, _ := newPair(t, ClusterConfig{})
	srvGz, cGz, _ := newPair(t, ClusterConfig{Codec: codec.Gzip{}})
	payload := []byte(strings.Repeat("compressible knowledge base text. ", 200))
	if err := cPlain.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if err := cGz.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if srvGz.BytesIn() >= srvPlain.BytesIn()/2 {
		t.Errorf("gzip sent %d bytes vs %d plain — no real saving", srvGz.BytesIn(), srvPlain.BytesIn())
	}
	got, err := cGz.Get("k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestOfflineWritesQueueAndSync(t *testing.T) {
	srv, c, hs := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	for i, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		if err := c.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatalf("offline put %d: %v", i, err)
		}
	}
	// The queue coalesces per key at enqueue time, so the second write to
	// "a" replaced the first instead of appending.
	if got := c.PendingWrites(); got != 2 {
		t.Errorf("PendingWrites = %d, want 2", got)
	}
	if got := c.Stats().OfflineWrites; got != 3 {
		t.Errorf("OfflineWrites = %d, want 3", got)
	}
	if srv.Requests() != 0 {
		t.Errorf("server saw %d requests while offline", srv.Requests())
	}
	// Reads keep working from the local mirror.
	v, err := c.Get("a")
	if err != nil || string(v) != "3" {
		t.Errorf("offline Get = (%q, %v)", v, err)
	}
	pushed, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	// Per-key coalescing collapsed the two writes to "a".
	if pushed != 2 {
		t.Errorf("pushed = %d, want 2", pushed)
	}
	if c.PendingWrites() != 0 {
		t.Errorf("pending after sync = %d", c.PendingWrites())
	}
	// Remote now has the final values.
	c2 := oneNode(t, hs.URL, ClusterConfig{})
	v, err = c2.Get("a")
	if err != nil || string(v) != "3" {
		t.Errorf("post-sync Get(a) = (%q, %v)", v, err)
	}
	v, err = c2.Get("b")
	if err != nil || string(v) != "2" {
		t.Errorf("post-sync Get(b) = (%q, %v)", v, err)
	}
}

func TestOfflineDeleteSyncs(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	if err := c.Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.SetOffline(true)
	if err := c.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("gone"); !errors.Is(err, errNotFound) {
		t.Errorf("deleted key survives sync: %v", err)
	}
}

func TestAutoOfflineOnOutage(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	srv.SetDown(true)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put during outage should queue, got %v", err)
	}
	if !c.Offline() {
		t.Error("client did not switch to offline on outage")
	}
	if c.PendingWrites() != 1 {
		t.Errorf("PendingWrites = %d", c.PendingWrites())
	}
	srv.SetDown(false)
	pushed, err := c.Sync()
	if err != nil || pushed != 1 {
		t.Errorf("Sync = (%d, %v)", pushed, err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Errorf("post-recovery Get = (%q, %v)", v, err)
	}
}

func TestSyncInterruptedRequeues(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	if err := c.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if _, err := c.Sync(); err == nil {
		t.Fatal("Sync during outage should fail")
	}
	if !c.Offline() {
		t.Error("client should return to offline after failed sync")
	}
	if c.PendingWrites() != 1 {
		t.Errorf("write lost: pending = %d", c.PendingWrites())
	}
	srv.SetDown(false)
	if pushed, err := c.Sync(); err != nil || pushed != 1 {
		t.Errorf("retry Sync = (%d, %v)", pushed, err)
	}
}

func TestServerLatencyInjection(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{})
	srv.SetLatency(30 * time.Millisecond)
	start := time.Now()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("elapsed = %v, latency not applied", elapsed)
	}
}

func TestLocalMirrorFasterPathExists(t *testing.T) {
	// With a local mirror and the client offline, reads are served with
	// zero remote requests — the paper's local storage-during-
	// disconnection story.
	srv, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.SetOffline(true)
	before := srv.Requests()
	for i := 0; i < 5; i++ {
		if _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Requests() != before {
		t.Error("offline reads hit the remote store")
	}
}

func TestOfflineNoFallbackErrors(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{})
	c.SetOffline(true)
	if _, err := c.Get("k"); !errors.Is(err, errOffline) {
		t.Errorf("error = %v, want errOffline", err)
	}
}

func TestOneNodeClampsReplicasAndQuorum(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{Replicas: 0, WriteQuorum: 0})
	if c.Replicas() != 1 || c.WriteQuorum() != 1 {
		t.Errorf("one node: R=%d W=%d, want 1 and 1", c.Replicas(), c.WriteQuorum())
	}
}

// TestSyncOutageMidReplayRequeuesTheRest: Sync attempts every queued write,
// counts the ones the store took and requeues only the others.
func TestSyncOutageMidReplayRequeuesTheRest(t *testing.T) {
	srv := NewServer(nil)
	var puts atomic.Int32
	node := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The node takes three writes, then goes down.
		if r.Method == http.MethodPut && puts.Add(1) == 4 {
			srv.SetDown(true)
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	// No breaker: the recovery Sync below must not wait out a cooldown.
	c := oneNode(t, hs.URL, ClusterConfig{Local: kvstore.NewMemory(), Breaker: failover.BreakerConfig{Threshold: -1}})
	c.SetOffline(true)
	for i := 0; i < 8; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pushed, err := c.Sync()
	if err == nil || pushed != 3 {
		t.Fatalf("Sync across an outage = (%d, %v), want 3 pushed and an error", pushed, err)
	}
	if !c.Offline() || c.PendingWrites() != 5 {
		t.Errorf("after the outage: offline %v, %d pending, want offline with the 5 writes that failed", c.Offline(), c.PendingWrites())
	}
	srv.SetDown(false)
	if pushed, err := c.Sync(); err != nil || pushed != 5 {
		t.Errorf("recovery Sync = (%d, %v), want (5, nil)", pushed, err)
	}
	if keys, err := c.Keys(); err != nil || len(keys) != 8 {
		t.Errorf("Keys after recovery = (%v, %v), want all 8", keys, err)
	}
}

// TestFailedReadServedLocallyStaysOnline: a read that cannot reach the
// store is answered from the mirror and leaves the client online — the next
// write finds out for itself.
func TestFailedReadServedLocallyStaysOnline(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if got, err := c.Get("k"); err != nil || string(got) != "v" {
		t.Errorf("Get during an outage = (%q, %v), want the mirror's \"v\"", got, err)
	}
	if keys, err := c.Keys(); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys during an outage = (%v, %v), want the mirror's [k]", keys, err)
	}
	if c.Offline() {
		t.Error("a failed read flipped the client offline")
	}
}
