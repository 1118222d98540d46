package cache

import (
	"context"
	"sync"
)

// Group de-duplicates concurrent calls with the same key: while one call is
// in flight, later callers for the same key wait for and share its result
// instead of issuing redundant service invocations. This complements the
// cache on cold keys under concurrency.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{} // closed when the call completes
	val  V
	err  error
	dups int
}

// NewGroup returns an empty Group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{calls: make(map[string]*call[V])}
}

// Do invokes fn once per key at a time; concurrent duplicate callers block
// and receive the same result. shared reports whether the result was
// produced by another caller's invocation. Waiters block until the leader
// finishes; use doCtx when a waiter must be able to give up early.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	return g.doCtx(context.Background(), key, fn)
}

// doCtx is Do with a context governing the wait: a duplicate caller whose
// ctx is cancelled stops waiting and returns ctx.Err() immediately —
// mirroring golang.org/x/sync/singleflight's Forget/cancel semantics —
// instead of waiting out the leader. The cancelled waiter is removed from
// the flight's duplicate accounting, so Waiters stays accurate.
//
// The leader is not interrupted: fn runs to completion regardless of ctx,
// and its result still serves every waiter that stayed. fn should observe
// the leader's own context internally if it needs cancellation.
func (g *Group[V]) doCtx(ctx context.Context, key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			g.mu.Lock()
			c.dups--
			g.mu.Unlock()
			var zero V
			return zero, ctx.Err(), false
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	// Read dups under the lock: a cancelled waiter may be decrementing it
	// concurrently right up until the key leaves the map.
	g.mu.Lock()
	delete(g.calls, key)
	shared = c.dups > 0
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, shared
}

// Waiters reports how many duplicate callers are currently waiting on the
// in-flight call for key, or -1 if no call is in flight. It exists for
// observability and test synchronization.
func (g *Group[V]) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.calls[key]
	if !ok {
		return -1
	}
	return c.dups
}

// Fill invokes fill for key — de-duplicated across concurrent callers — and
// caches its result. It is the miss half of a lookup: callers probe with
// Get first, so Fill is stats-neutral. Its in-flight re-check, which lets
// an earlier duplicate's result win, uses a hidden peek, so the caller's
// probe remains the only recorded lookup and misses are not double-counted.
// ctx bounds the wait for an in-flight leader, as in doCtx.
//
// A result is cached only if m was not cleared while fill ran: fill may
// have computed it from state the Clear meant to invalidate. The result is
// still returned to the callers that waited for it.
func Fill[V any](ctx context.Context, m *Sharded[V], g *Group[V], key string, fill func() (V, error)) (V, error) {
	v, err, _ := g.doCtx(ctx, key, func() (V, error) {
		sh := m.shard(key)
		if v, ok := sh.peek(key); ok {
			return v, nil
		}
		gen := m.gen.Load()
		v, err := fill()
		if err != nil {
			var zero V
			return zero, err
		}
		sh.set(key, v, &m.gen, gen)
		return v, nil
	})
	return v, err
}
