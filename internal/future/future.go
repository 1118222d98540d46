// Package future implements the asynchronous-invocation substrate of the
// rich SDK (paper §2): futures in the style of Guava's ListenableFuture —
// completion checks, blocking and timed gets, and registered callbacks that
// run when the future completes — plus bounded worker pools so that
// parallel service fan-out cannot create an unbounded number of goroutines
// (paper §2.1: "to prevent the number of threads from becoming too large in
// corner cases, we use thread pools of limited size").
package future

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errTimeout is returned by GetTimeout when the deadline passes before the
// future completes.
var errTimeout = errors.New("future: timed out")

// errCancelled is the error carried by a future that was cancelled before
// completing.
var errCancelled = errors.New("future: cancelled")

// Future is the result of an asynchronous computation, mirroring the
// ListenableFuture interface the paper builds on: IsDone, blocking Get,
// timed Get, and Listen to register completion callbacks.
type Future[T any] struct {
	mu        sync.Mutex
	done      chan struct{} // closed exactly once on completion
	value     T
	err       error
	listeners []func(T, error)
}

// newFuture returns an incomplete Future whose value will be supplied via
// Complete or Fail.
func newFuture[T any]() *Future[T] {
	return &Future[T]{done: make(chan struct{})}
}

// Complete fulfils the future with v and runs listeners synchronously in
// registration order. It reports false if the future was already settled.
func (f *Future[T]) Complete(v T) bool { return f.settle(v, nil) }

// Fail settles the future with err and runs listeners. It reports false if
// the future was already settled.
func (f *Future[T]) Fail(err error) bool {
	var zero T
	if err == nil {
		err = errors.New("future: Fail called with nil error")
	}
	return f.settle(zero, err)
}

// Cancel settles the future with errCancelled. It reports false if the
// future was already settled.
func (f *Future[T]) Cancel() bool {
	var zero T
	return f.settle(zero, errCancelled)
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

// IsDone reports whether the future has settled.
func (f *Future[T]) IsDone() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Get blocks until the future settles and returns its outcome.
func (f *Future[T]) Get() (T, error) {
	<-f.done
	return f.value, f.err
}

// GetTimeout blocks for at most d. It returns errTimeout if the future has
// not settled in time; the future itself is unaffected.
func (f *Future[T]) GetTimeout(d time.Duration) (T, error) {
	select {
	case <-f.done:
		return f.value, f.err
	case <-time.After(d):
		var zero T
		return zero, errTimeout
	}
}

// GetContext blocks until the future settles or ctx is done, returning
// ctx.Err() in the latter case.
func (f *Future[T]) GetContext(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.value, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
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
