package remotestore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// TestOfflineQueueBounded is the regression test for the unbounded
// write-back queue: before the cap, a client left offline long enough
// queued every write forever. Now the queue holds at most maxPending
// distinct keys, evicting oldest-first and counting the drops.
func TestOfflineQueueBounded(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	const n = maxPending + 90
	for i := 0; i < n; i++ {
		if err := c.Put(fmt.Sprintf("k%05d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.PendingWrites(); got != maxPending {
		t.Fatalf("PendingWrites = %d, want %d (cap) — queue is unbounded", got, maxPending)
	}
	if got := c.Stats().DroppedWrites; got != 90 {
		t.Fatalf("DroppedWrites = %d, want 90", got)
	}
	// The survivors are the newest maxPending keys.
	pushed, err := c.Sync()
	if err != nil || pushed != maxPending {
		t.Fatalf("Sync = (%d, %v), want (%d, nil)", pushed, err, maxPending)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != maxPending {
		t.Fatalf("synced %d keys, want %d", len(keys), maxPending)
	}
	if keys[0] != "k00090" || keys[maxPending-1] != fmt.Sprintf("k%05d", n-1) {
		t.Fatalf("synced keys %v … %v, want k00090 … k%05d", keys[0], keys[maxPending-1], n-1)
	}
}

// TestOfflineQueueCoalesces checks the other half of the fix: re-writing a
// queued key must replace the entry in place, not consume another slot, so
// a workload hammering few keys never hits the cap at all.
func TestOfflineQueueCoalesces(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i%3)
		if err := c.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.PendingWrites(); got != 3 {
		t.Fatalf("PendingWrites = %d, want 3 (one per distinct key)", got)
	}
	if got := c.Stats().DroppedWrites; got != 0 {
		t.Fatalf("DroppedWrites = %d, want 0 — coalescing must not evict", got)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Each key holds its latest value (writes 47, 48, 49 → k2, k0, k1).
	for key, want := range map[string]string{"k0": "v48", "k1": "v49", "k2": "v47"} {
		v, err := c.Get(key)
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) = (%q, %v), want %q", key, v, err, want)
		}
	}
}

// TestSyncRequeuePrefersNewerWrite drives the requeue merge: a write
// queued while a failing Sync is in flight must survive the requeue of the
// older drained entry for the same key.
func TestSyncRequeuePrefersNewerWrite(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	if err := c.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if pushed, err := c.Sync(); err == nil || pushed != 0 {
		t.Fatalf("Sync against down server = (%d, %v), want error", pushed, err)
	}
	// Still offline after the failed sync; write the newer value.
	if !c.Offline() {
		t.Fatal("client should be offline after failed sync")
	}
	if err := c.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := c.PendingWrites(); got != 1 {
		t.Fatalf("PendingWrites = %d, want 1 (requeued entry coalesced)", got)
	}
	srv.SetDown(false)
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "new" {
		t.Fatalf("Get(k) = (%q, %v), want \"new\"", v, err)
	}
}

// TestContextCancelsRemoteIO verifies the context threading: a cancelled
// context aborts the in-flight request instead of waiting out the HTTP
// timeout.
func TestContextCancelsRemoteIO(t *testing.T) {
	srv, c, _ := newPair(t, ClusterConfig{Timeout: 30 * time.Second})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.SetLatency(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.GetCtx(ctx, "k")
	if err == nil {
		t.Fatal("GetCtx should fail when the context expires")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("GetCtx took %v — context cancellation not honoured", elapsed)
	}
	// The caller giving up on one read says nothing about the store.
	if c.Offline() {
		t.Error("a cancelled remote read flipped the client offline")
	}
}

// TestSyncCtxInterrupts verifies SyncCtx requeues the remainder when the
// context dies mid-replay.
func TestSyncCtxInterrupts(t *testing.T) {
	_, c, _ := newPair(t, ClusterConfig{Local: kvstore.NewMemory()})
	c.SetOffline(true)
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pushed, err := c.syncCtx(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SyncCtx(cancelled) error = %v, want context.Canceled", err)
	}
	if pushed != 0 {
		t.Fatalf("pushed = %d, want 0", pushed)
	}
	if got := c.PendingWrites(); got != 5 {
		t.Fatalf("PendingWrites = %d, want 5 (all requeued)", got)
	}
	if !c.Offline() {
		t.Error("client should be offline after interrupted sync")
	}
}
