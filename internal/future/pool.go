package future

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoolClosed is returned by Submit after Close has been called.
var ErrPoolClosed = errors.New("future: pool closed")

// ErrPoolSaturated is carried by the failed future TrySubmit returns when
// the pool's queue is full: every worker is busy and no queue slot is free.
var ErrPoolSaturated = errors.New("future: pool saturated")

// Pool is a bounded worker pool: at most Workers tasks execute
// concurrently, and at most QueueDepth tasks wait. Submit blocks when the
// queue is full, providing natural backpressure instead of unbounded
// goroutine growth.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewPool starts a pool with the given number of workers and queue depth.
// workers must be >= 1; queueDepth >= 0 (0 means hand-off only).
func NewPool(workers, queueDepth int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("future: workers %d < 1", workers)
	}
	if queueDepth < 0 {
		return nil, fmt.Errorf("future: queueDepth %d < 0", queueDepth)
	}
	p := &Pool{tasks: make(chan func(), queueDepth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p, nil
}

// Submit schedules fn on the pool and returns a future for its result. It
// blocks while the queue is full and returns a failed future if the pool is
// closed.
func Submit[T any](p *Pool, fn func() (T, error)) *Future[T] {
	f, task := settleTask(fn)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		f.fail(ErrPoolClosed)
		return f
	}
	// Enqueue while holding the lock so Close cannot close the channel
	// between the check and the send. Queue-full backpressure therefore
	// also briefly blocks other submitters, which is acceptable: the pool
	// is saturated either way.
	p.tasks <- task
	p.mu.Unlock()
	return f
}

// TrySubmit is Submit without the queue-full blocking: if the pool's queue
// has no free slot the returned future fails immediately with
// ErrPoolSaturated (and with ErrPoolClosed after Close). Callers that must
// not stall on a saturated pool — the SDK's asynchronous invocation, for
// example — use it to turn backpressure into an explicit, observable error.
func TrySubmit[T any](p *Pool, fn func() (T, error)) *Future[T] {
	f, task := settleTask(fn)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		f.fail(ErrPoolClosed)
		return f
	}
	select {
	case p.tasks <- task:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		f.fail(ErrPoolSaturated)
	}
	return f
}

// settleTask returns a future for fn's result and the task that runs fn
// and settles the future with its value or error.
func settleTask[T any](fn func() (T, error)) (*Future[T], func()) {
	f := newFuture[T]()
	return f, func() {
		v, err := fn()
		if err != nil {
			f.fail(err)
			return
		}
		f.complete(v)
	}
}

// Close stops accepting tasks and waits for queued and running tasks to
// finish. It is safe to call multiple times.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
