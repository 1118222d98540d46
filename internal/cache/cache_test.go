package cache

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The behavioural contract of Get/Set/Delete/Clear/Stats lives in
// conformance_test.go (at one and eight shards) and in FuzzSharded. This
// file covers the pieces outside it: statistics edge cases, the
// single-flight group, Fill and its generation rule, and the hit path's
// allocation pins.

func TestHitRatioZero(t *testing.T) {
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty HitRatio should be 0")
	}
}

func TestGroupDeduplicates(t *testing.T) {
	g := NewGroup[int]()
	var calls int32
	var mu sync.Mutex
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do("k", func() (int, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do error: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the four duplicate callers have all registered on the
	// in-flight call, then release it.
	for g.Waiters("k") < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn called %d times, want 1", calls)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("result[%d] = %d, want 42", i, v)
		}
	}
}

func TestGroupPropagatesError(t *testing.T) {
	g := NewGroup[int]()
	wantErr := errors.New("fill failed")
	_, err, _ := g.Do("k", func() (int, error) { return 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("error = %v, want %v", err, wantErr)
	}
	// After completion the key is released and callable again.
	v, err, _ := g.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("second Do = (%d, %v)", v, err)
	}
}

// A duplicate caller whose context is cancelled must return ctx.Err()
// immediately instead of waiting out the leader, and must drop out of the
// flight's duplicate accounting.
func TestGroupDoCtxCancelledWaiter(t *testing.T) {
	g := NewGroup[int]()
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, _ := g.Do("k", func() (int, error) {
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader Do = (%d, %v)", v, err)
		}
	}()
	// Wait for the leader's flight to exist.
	for g.Waiters("k") == -1 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err, shared := g.doCtx(ctx, "k", func() (int, error) { return 0, nil })
		if shared {
			t.Error("cancelled waiter reported shared = true")
		}
		waiterErr <- err
	}()
	for g.Waiters("k") < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked on the leader")
	}
	// The cancelled waiter must have left the duplicate count.
	if w := g.Waiters("k"); w != 0 {
		t.Errorf("Waiters after cancellation = %d, want 0", w)
	}
	close(release)
	<-leaderDone
	if w := g.Waiters("k"); w != -1 {
		t.Errorf("Waiters after completion = %d, want -1", w)
	}
}

// A waiter whose context survives shares the leader's result even when a
// sibling waiter cancelled mid-flight.
func TestGroupDoCtxSurvivingWaiterShares(t *testing.T) {
	g := NewGroup[int]()
	release := make(chan struct{})
	type res struct {
		v      int
		err    error
		shared bool
	}
	leader := make(chan res, 1)
	go func() {
		v, err, shared := g.Do("k", func() (int, error) {
			<-release
			return 9, nil
		})
		leader <- res{v, err, shared}
	}()
	for g.Waiters("k") == -1 {
		time.Sleep(time.Millisecond)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		g.doCtx(cancelled, "k", func() (int, error) { return 0, nil })
	}()
	survivor := make(chan res, 1)
	go func() {
		v, err, shared := g.doCtx(context.Background(), "k", func() (int, error) { return 0, nil })
		survivor <- res{v, err, shared}
	}()
	for g.Waiters("k") < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-dropped
	close(release)

	got := <-survivor
	if got.err != nil || got.v != 9 || !got.shared {
		t.Errorf("surviving waiter = %+v, want (9, nil, shared)", got)
	}
	// The leader still saw a duplicate (the survivor), so shared is true.
	if l := <-leader; l.err != nil || !l.shared {
		t.Errorf("leader = %+v, want shared result", l)
	}
}

// A caller probes with Get and fills on a miss, as core's cacheStage does: one
// fill, and exactly one recorded lookup per call.
func TestProbeThenFill(t *testing.T) {
	m := NewSharded[string](4)
	g := NewGroup[string]()
	var fills int
	lookup := func() (string, bool, error) {
		if v, err := m.Get("k"); err == nil {
			return v, true, nil
		}
		v, err := Fill(context.Background(), m, g, "k", func() (string, error) {
			fills++
			return "value", nil
		})
		return v, false, err
	}
	if v, hit, err := lookup(); err != nil || hit || v != "value" {
		t.Errorf("first lookup = (%q, %v, %v)", v, hit, err)
	}
	if v, hit, err := lookup(); err != nil || !hit || v != "value" {
		t.Errorf("second lookup = (%q, %v, %v), want cache hit", v, hit, err)
	}
	if fills != 1 {
		t.Errorf("fill called %d times, want 1", fills)
	}
	if s := m.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestFillIsStatsNeutral(t *testing.T) {
	m := NewSharded[string](4)
	g := NewGroup[string]()
	v, err := Fill(context.Background(), m, g, "k", func() (string, error) { return "value", nil })
	if err != nil || v != "value" {
		t.Errorf("Fill = (%q, %v)", v, err)
	}
	// Fill's in-flight re-check is a hidden peek: callers that probed the
	// cache themselves must not have misses double-counted.
	if s := m.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("stats after Fill = %+v, want 0 hits / 0 misses", s)
	}
	if v, err := m.Get("k"); err != nil || v != "value" {
		t.Errorf("Get after Fill = (%q, %v), want cached value", v, err)
	}
}

func TestFillErrorNotCached(t *testing.T) {
	m := NewSharded[string](4)
	g := NewGroup[string]()
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := Fill(ctx, m, g, "k", func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Errorf("error = %v, want boom", err)
	}
	// Error results must not be cached; the next call fills again.
	if _, err := m.Get("k"); !errors.Is(err, errNotFound) {
		t.Errorf("Get after a failed fill = %v, want ErrNotFound", err)
	}
	if v, err := Fill(ctx, m, g, "k", func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Errorf("retry = (%q, %v)", v, err)
	}
}

func TestFillConcurrentSingleFill(t *testing.T) {
	m := NewSharded[int](16)
	g := NewGroup[int]()
	ctx := context.Background()
	var mu sync.Mutex
	fills := 0
	const callers = 20
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Get("hot"); err == nil {
				return
			}
			v, err := Fill(ctx, m, g, "hot", func() (int, error) {
				mu.Lock()
				fills++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return 9, nil
			})
			if err != nil || v != 9 {
				t.Errorf("Fill = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if fills != 1 {
		t.Errorf("fill executed %d times, want 1 (single-flight)", fills)
	}
	// Each caller probed once; none of the in-flight re-checks may add a
	// second lookup, so the hit ratio stays exact.
	s := m.Stats()
	if s.Hits+s.Misses != callers {
		t.Errorf("recorded %d lookups for %d callers: %+v", s.Hits+s.Misses, callers, s)
	}
}

// A cancelled duplicate unblocks with ctx.Err() while the leader's fill
// still lands in the cache.
func TestFillContextCancelledWaiter(t *testing.T) {
	m := NewSharded[int](16)
	g := NewGroup[int]()
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := Fill(context.Background(), m, g, "k", func() (int, error) {
			<-release
			return 5, nil
		})
		if err != nil || v != 5 {
			t.Errorf("leader Fill = (%d, %v)", v, err)
		}
	}()
	for g.Waiters("k") == -1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Fill(ctx, m, g, "k", func() (int, error) { return 0, nil })
		errc <- err
	}()
	for g.Waiters("k") < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Fill error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Fill still blocked")
	}
	close(release)
	<-leaderDone
	if v, err := m.Get("k"); err != nil || v != 5 {
		t.Errorf("cache after leader fill = (%d, %v), want (5, nil)", v, err)
	}
}

// A Clear that overtakes a running fill wins: the fill's result answers
// its caller but is not cached, so the next Get misses.
func TestFillOvertakenByClearNotCached(t *testing.T) {
	for _, shards := range []int{1, 8} {
		m := NewSharded[int](16, withShards(shards))
		g := NewGroup[int]()
		started, release := make(chan struct{}), make(chan struct{})
		got := make(chan int, 1)
		go func() {
			v, err := Fill(context.Background(), m, g, "key", func() (int, error) {
				close(started)
				<-release
				return 1, nil
			})
			if err != nil {
				t.Errorf("Fill: %v", err)
			}
			got <- v
		}()
		<-started
		m.Clear()
		close(release)
		if v := <-got; v != 1 {
			t.Errorf("%d shards: Fill returned %d, want the fill's 1", shards, v)
		}
		if v, err := m.Get("key"); !errors.Is(err, errNotFound) {
			t.Errorf("%d shards: Get after Clear overtook the fill = (%d, %v), want ErrNotFound", shards, v, err)
		}
		// The next fill starts after the Clear and is cached as usual.
		if _, err := Fill(context.Background(), m, g, "key", func() (int, error) { return 2, nil }); err != nil {
			t.Fatal(err)
		}
		if v, err := m.Get("key"); err != nil || v != 2 {
			t.Errorf("%d shards: Get after a fresh fill = (%d, %v), want (2, nil)", shards, v, err)
		}
	}
}

// The hit path and an overwrite of a present key allocate nothing, with
// keys of the SDK's shape (a service prefix and 32 hex digits, which take
// the sampled-key hash) and short ones (which take FNV-1a).
func TestShardedAllocs(t *testing.T) {
	m := NewSharded[int](1024, WithTTL(time.Hour))
	keys := make([]string, 0, 64)
	for i := 0; i < 32; i++ {
		keys = append(keys, fmt.Sprintf("svc:nlu-alpha:%032x", uint64(i)*0x9e3779b97f4a7c15), strconv.Itoa(i))
	}
	for i, k := range keys {
		m.Set(k, i)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if _, err := m.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("Get hit: %.1f allocations per %d lookups, want 0", allocs, len(keys))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i, k := range keys {
			m.Set(k, i)
		}
	}); allocs != 0 {
		t.Errorf("Set over a present key: %.1f allocations per %d stores, want 0", allocs, len(keys))
	}
}
