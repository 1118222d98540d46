package remotestore

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// brokenStore is a node's backing store whose writes can be made to fail,
// which the node reports as a 500: an answer, not an outage.
type brokenStore struct {
	kvstore.Store
	broken atomic.Bool
}

func (b *brokenStore) Put(key string, value []byte) error {
	if b.broken.Load() {
		return errors.New("disk full")
	}
	return b.Store.Put(key, value)
}

// refusingNode starts a store node that answers 413 to anything over ten
// bytes and 500 to every write while its store is broken.
func refusingNode(t *testing.T) (*brokenStore, string) {
	t.Helper()
	st := &brokenStore{Store: kvstore.NewMemory()}
	hs := httptest.NewServer(NewServer(st, WithMaxBytes(10)).Handler())
	t.Cleanup(hs.Close)
	return st, hs.URL
}

// checkRefusedPut drives one client, which caches and mirrors, against nodes
// that refuse some writes. After a Put that returned an error, Get must
// return what the store holds — with the cache and the mirror agreeing —
// while a write queued offline stays readable.
func checkRefusedPut(t *testing.T, s Store, mirror kvstore.Store, nodes []*brokenStore) {
	t.Helper()
	small, big := []byte("ten bytes!"), bytes.Repeat([]byte("x"), 100)
	wantHeld := func(step, key string, want []byte) {
		t.Helper()
		if got, err := s.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: Get(%s) = (%q, %v), want %q", step, key, got, err, want)
		}
		if got, err := mirror.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: mirror holds (%q, %v) for %s, want %q", step, got, err, key, want)
		}
	}
	if err := s.Put("k", small); err != nil {
		t.Fatal(err)
	}
	wantHeld("accepted write", "k", small)

	if err := s.Put("k", big); err == nil {
		t.Fatal("Put of 100 bytes to nodes that take 10 returned nil")
	}
	wantHeld("after a 413", "k", small)

	if err := s.Put("fresh", big); err == nil {
		t.Fatal("Put of 100 bytes under a new key returned nil")
	}
	if got, err := s.Get("fresh"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after a 413 on a new key: Get = (%q, %v), want ErrNotFound", got, err)
	}
	if got, err := mirror.Get("fresh"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("after a 413 on a new key: mirror holds (%q, %v)", got, err)
	}

	for _, n := range nodes {
		n.broken.Store(true)
	}
	err := s.Put("k", []byte("other"))
	if err == nil {
		t.Fatal("Put to nodes answering 500 returned nil")
	}
	if _, isCluster := s.(*Cluster); isCluster && !errors.Is(err, ErrNoQuorum) {
		t.Errorf("Put to nodes answering 500: error %v, want ErrNoQuorum", err)
	}
	if s.Offline() {
		t.Error("a 500 is an answer: the client must not go offline on it")
	}
	for _, n := range nodes {
		n.broken.Store(false)
	}
	wantHeld("after a 500", "k", small)

	// A write queued offline is accepted: the client reads it back.
	s.SetOffline(true)
	if err := s.Put("queued", small); err != nil {
		t.Fatalf("offline Put = %v, want nil", err)
	}
	if got, err := s.Get("queued"); err != nil || !bytes.Equal(got, small) {
		t.Errorf("offline Get of a queued write = (%q, %v), want %q", got, err, small)
	}
	if n := s.PendingWrites(); n != 1 {
		t.Errorf("PendingWrites = %d, want 1", n)
	}
}

func TestClientRefusedPutNotServed(t *testing.T) {
	node, url := refusingNode(t)
	mirror := kvstore.NewMemory()
	c := NewClient(ClientConfig{BaseURL: url, CacheSize: 16, Local: mirror})
	checkRefusedPut(t, c, mirror, []*brokenStore{node})
}

func TestClusterRefusedPutNotServed(t *testing.T) {
	var nodes []*brokenStore
	var urls []string
	for i := 0; i < 3; i++ {
		n, url := refusingNode(t)
		nodes, urls = append(nodes, n), append(urls, url)
	}
	mirror := kvstore.NewMemory()
	cl, err := NewCluster(ClusterConfig{
		Nodes: urls, Replicas: 2, Seed: 1, CacheSize: 16, Local: mirror,
		Retry: fastRetry, Breaker: core.BreakerConfig{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	checkRefusedPut(t, cl, mirror, nodes)
}
