package future

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// isDone reports whether f has settled, without blocking.
func isDone[T any](f *Future[T]) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

func TestCompleteAndGet(t *testing.T) {
	f := newFuture[int]()
	if isDone(f) {
		t.Error("fresh future is done")
	}
	if !f.complete(42) {
		t.Error("complete returned false")
	}
	if !isDone(f) {
		t.Error("not done after complete")
	}
	v, err := f.Get()
	if err != nil || v != 42 {
		t.Errorf("Get = (%d, %v), want (42, nil)", v, err)
	}
}

func TestFail(t *testing.T) {
	f := newFuture[string]()
	if !f.fail(errBoom) {
		t.Error("fail returned false")
	}
	_, err := f.Get()
	if !errors.Is(err, errBoom) {
		t.Errorf("Get error = %v, want boom", err)
	}
}

func TestFailNilError(t *testing.T) {
	f := newFuture[int]()
	f.fail(nil)
	_, err := f.Get()
	if err == nil {
		t.Error("fail(nil) should still settle with a non-nil error")
	}
}

func TestSettleOnlyOnce(t *testing.T) {
	f := newFuture[int]()
	if !f.complete(1) {
		t.Error("first complete = false")
	}
	if f.complete(2) {
		t.Error("second complete = true")
	}
	if f.fail(errBoom) {
		t.Error("fail after complete = true")
	}
	v, err := f.Get()
	if v != 1 || err != nil {
		t.Errorf("Get = (%d, %v), want (1, nil)", v, err)
	}
}

func TestListenBeforeSettle(t *testing.T) {
	f := newFuture[int]()
	got := make(chan int, 1)
	f.Listen(func(v int, err error) { got <- v })
	f.complete(5)
	select {
	case v := <-got:
		if v != 5 {
			t.Errorf("listener got %d, want 5", v)
		}
	case <-time.After(time.Second):
		t.Fatal("listener not invoked")
	}
}

func TestListenAfterSettleRunsImmediately(t *testing.T) {
	f := newFuture[int]()
	f.complete(3)
	var ran bool
	f.Listen(func(v int, err error) { ran = v == 3 && err == nil })
	if !ran {
		t.Error("listener on settled future did not run synchronously")
	}
}

func TestListenersRunInOrder(t *testing.T) {
	f := newFuture[int]()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		f.Listen(func(int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	f.complete(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("listeners ran out of order: %v", order)
		}
	}
}

func TestPoolBoundedConcurrency(t *testing.T) {
	p, err := NewPool(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var cur, peak int32
	var fs []*Future[int]
	for i := 0; i < 50; i++ {
		fs = append(fs, Submit(p, func() (int, error) {
			n := atomic.AddInt32(&cur, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&cur, -1)
			return 1, nil
		}))
	}
	for _, f := range fs {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&peak); got > 3 {
		t.Errorf("peak concurrency = %d, want <= 3", got)
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	f := Submit(p, func() (int, error) { return 1, nil })
	if _, err := f.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("error = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseWaitsForTasks(t *testing.T) {
	p, err := NewPool(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	var done int32
	for i := 0; i < 10; i++ {
		Submit(p, func() (int, error) {
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&done, 1)
			return 0, nil
		})
	}
	p.Close()
	if got := atomic.LoadInt32(&done); got != 10 {
		t.Errorf("Close returned with %d/10 tasks done", got)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p, err := NewPool(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // must not panic
}

func TestPoolInvalidConfig(t *testing.T) {
	if _, err := NewPool(0, 1); err == nil {
		t.Error("workers=0 should error")
	}
	if _, err := NewPool(1, -1); err == nil {
		t.Error("queueDepth=-1 should error")
	}
}

func TestPoolTaskError(t *testing.T) {
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := Submit(p, func() (string, error) { return "", errBoom })
	if _, err := f.Get(); !errors.Is(err, errBoom) {
		t.Errorf("error = %v, want boom", err)
	}
}

func TestConcurrentSettleRace(t *testing.T) {
	// Many goroutines racing to settle; exactly one must win.
	for round := 0; round < 50; round++ {
		f := newFuture[int]()
		var wins int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if f.complete(i) {
					atomic.AddInt32(&wins, 1)
				}
			}(i)
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want 1", round, wins)
		}
	}
}

func TestTrySubmitSaturatedPool(t *testing.T) {
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	busy := TrySubmit(p, func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started // worker occupied
	queued := TrySubmit(p, func() (int, error) { return 2, nil })
	overflow := TrySubmit(p, func() (int, error) { return 3, nil })
	if _, err := overflow.Get(); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("overflow err = %v, want ErrPoolSaturated", err)
	}
	release <- struct{}{}
	if v, err := busy.Get(); err != nil || v != 1 {
		t.Fatalf("busy = %d, %v", v, err)
	}
	if v, err := queued.Get(); err != nil || v != 2 {
		t.Fatalf("queued = %d, %v", v, err)
	}
}

func TestTrySubmitClosedPool(t *testing.T) {
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	f := TrySubmit(p, func() (int, error) { return 1, nil })
	if _, err := f.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}
