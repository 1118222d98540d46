// Package future implements the asynchronous-invocation substrate of the
// rich SDK (paper §2): futures in the style of Guava's ListenableFuture —
// a blocking get, a completion channel, and registered callbacks that run
// when the future completes — plus bounded worker pools so that
// parallel service fan-out cannot create an unbounded number of goroutines
// (paper §2.1: "to prevent the number of threads from becoming too large in
// corner cases, we use thread pools of limited size").
package future

import (
	"errors"
	"sync"
)

// Future is the result of an asynchronous computation, mirroring the
// ListenableFuture interface the paper builds on: blocking Get, Done for
// select statements, and Listen to register completion callbacks. Only
// this package's pools settle a future.
type Future[T any] struct {
	mu        sync.Mutex
	done      chan struct{} // closed exactly once on completion
	value     T
	err       error
	listeners []func(T, error)
}

// newFuture returns an incomplete Future whose value will be supplied via
// complete or fail.
func newFuture[T any]() *Future[T] {
	return &Future[T]{done: make(chan struct{})}
}

// complete fulfils the future with v and runs listeners synchronously in
// registration order. It reports false if the future was already settled.
func (f *Future[T]) complete(v T) bool { return f.settle(v, nil) }

// fail settles the future with err and runs listeners. It reports false if
// the future was already settled.
func (f *Future[T]) fail(err error) bool {
	var zero T
	if err == nil {
		err = errors.New("future: fail called with nil error")
	}
	return f.settle(zero, err)
}

func (f *Future[T]) settle(v T, err error) bool {
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		return false
	default:
	}
	f.value, f.err = v, err
	listeners := f.listeners
	f.listeners = nil
	close(f.done)
	f.mu.Unlock()
	for _, l := range listeners {
		l(v, err)
	}
	return true
}

// Get blocks until the future settles and returns its outcome.
func (f *Future[T]) Get() (T, error) {
	<-f.done
	return f.value, f.err
}

// Done returns a channel closed when the future settles, for use in select
// statements.
func (f *Future[T]) Done() <-chan struct{} { return f.done }

// Listen registers fn to run when the future settles. If it has already
// settled, fn runs immediately in the calling goroutine; otherwise it runs
// in the goroutine that settles the future. This is the ListenableFuture
// callback-registration feature the paper highlights.
func (f *Future[T]) Listen(fn func(T, error)) {
	f.mu.Lock()
	select {
	case <-f.done:
		v, err := f.value, f.err
		f.mu.Unlock()
		fn(v, err)
		return
	default:
	}
	f.listeners = append(f.listeners, fn)
	f.mu.Unlock()
}
