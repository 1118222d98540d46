package remotestore

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// brokenStore is a node's backing store whose reads and writes can be made
// to fail, which the node reports as a 500: an answer, not an outage.
type brokenStore struct {
	kvstore.Store
	broken  atomic.Bool
	refused chan<- struct{} // one send per refused Put
}

func (b *brokenStore) Put(key string, value []byte) error {
	if b.broken.Load() {
		b.refused <- struct{}{}
		return errors.New("disk full")
	}
	return b.Store.Put(key, value)
}

func (b *brokenStore) Get(key string) ([]byte, error) {
	if b.broken.Load() {
		return nil, errors.New("bad sector")
	}
	return b.Store.Get(key)
}

// refusingRig is n store nodes that answer 413 to anything over ten bytes
// and 500 to every read and write while their store is broken, under one
// client that caches and mirrors and otherwise runs on the defaults.
type refusingRig struct {
	cl      *Cluster
	mirror  kvstore.Store
	nodes   map[string]*brokenStore // by node URL
	refused chan struct{}
}

func newRefusingRig(t *testing.T, n int) *refusingRig {
	t.Helper()
	// Room for every owner's refusal of every write a test makes, so a
	// node's handler never blocks on a test that stopped listening.
	rig := &refusingRig{mirror: kvstore.NewMemory(), nodes: map[string]*brokenStore{}, refused: make(chan struct{}, 16)}
	var urls []string
	for i := 0; i < n; i++ {
		st := &brokenStore{Store: kvstore.NewMemory(), refused: rig.refused}
		hs := httptest.NewServer(NewServer(st, withMaxBytes(10)).Handler())
		t.Cleanup(hs.Close)
		rig.nodes[hs.URL] = st
		urls = append(urls, hs.URL)
	}
	cl, err := NewCluster(ClusterConfig{Nodes: urls, Replicas: 2, Seed: 1, CacheSize: 16, Local: rig.mirror})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rig.cl = cl
	return rig
}

func (rig *refusingRig) setBroken(broken bool) {
	for _, n := range rig.nodes {
		n.broken.Store(broken)
	}
}

// TestClusterRefusedPutNotServed drives one client against nodes that
// refuse some writes. After a Put that returned an error, Get must return
// what the store holds — with the cache and the mirror agreeing — while a
// write queued offline stays readable.
func TestClusterRefusedPutNotServed(t *testing.T) {
	t.Run("N=1", func(t *testing.T) { checkRefusedPut(t, newRefusingRig(t, 1)) })
	t.Run("N=3,R=2", func(t *testing.T) { checkRefusedPut(t, newRefusingRig(t, 3)) })
}

func checkRefusedPut(t *testing.T, rig *refusingRig) {
	s, mirror := rig.cl, rig.mirror
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
	if got, err := s.Get("fresh"); !errors.Is(err, errNotFound) {
		t.Errorf("after a 413 on a new key: Get = (%q, %v), want ErrNotFound", got, err)
	}
	if got, err := mirror.Get("fresh"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("after a 413 on a new key: mirror holds (%q, %v)", got, err)
	}

	rig.setBroken(true)
	err := s.Put("k", []byte("other"))
	if err == nil {
		t.Fatal("Put to nodes answering 500 returned nil")
	}
	if !errors.Is(err, errNoQuorum) {
		t.Errorf("Put to nodes answering 500: error %v, want errNoQuorum", err)
	}
	if s.Offline() {
		t.Error("a 500 is an answer: the client must not go offline on it")
	}
	// Put returns as soon as quorum is out of reach, while another owner's
	// request may still be on its way. Mend the stores only once every owner
	// has refused, or the straggler lands on a mended one — which the
	// contract allows ("some replicas may have taken the write") and
	// wantHeld does not.
	for i := 0; i < s.Replicas(); i++ {
		select {
		case <-rig.refused:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d owners have refused the write", i, s.Replicas())
		}
	}
	rig.setBroken(false)
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

// A node whose backing store cannot read answers 500, not 404: the client
// must not take "the disk failed" for "no such key".
func TestGetStoreErrorIsNot404(t *testing.T) {
	stored := func(t *testing.T, n int) *refusingRig {
		rig := newRefusingRig(t, n)
		if err := rig.cl.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		rig.cl.memcache.Delete("k") // the next Get goes to the nodes
		return rig
	}
	t.Run("N=1", func(t *testing.T) {
		rig := stored(t, 1)
		rig.setBroken(true)
		// The mirror holds k, but a node that answers is not an outage to
		// fall back from.
		got, err := rig.cl.Get("k")
		if err == nil || errors.Is(err, errNotFound) || errors.Is(err, errOffline) {
			t.Errorf("Get from a node that cannot read = (%q, %v), want the node's own error", got, err)
		}
		if rig.cl.Offline() {
			t.Error("a 500 is an answer: the client must not go offline on it")
		}
	})
	t.Run("N=3,R=2", func(t *testing.T) {
		rig := stored(t, 3)
		rig.nodes[rig.cl.owners("k")[0]].broken.Store(true)
		if got, err := rig.cl.Get("k"); err != nil || string(got) != "v" {
			t.Errorf("Get with the primary's store broken = (%q, %v), want the other owner's copy", got, err)
		}
		if n := rig.cl.Stats().ReadFailovers; n != 1 {
			t.Errorf("ReadFailovers = %d, want 1", n)
		}
	})
}
