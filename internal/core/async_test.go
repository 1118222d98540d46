package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/service"
)

// TestInvokeAsyncSaturationSurfacesThroughFuture is the regression test for
// the blocking-submit bug: with the pool's one worker busy and its one
// queue slot taken, a further InvokeAsync must return immediately with a
// future failed with future.ErrPoolSaturated instead of blocking the
// caller.
func TestInvokeAsyncSaturationSurfacesThroughFuture(t *testing.T) {
	c := newClient(t, Config{AsyncWorkers: 1, AsyncQueue: 1})
	// Buffered: the worker may reach its send before this goroutine
	// reaches the receive, and a dropped signal would hang the test.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker := service.Func{
		Meta: service.Info{Name: "slow", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			close(started)
			<-release
			return service.Response{Body: []byte("done")}, nil
		},
	}
	defer close(release)
	c.MustRegister(blocker)
	fast, _ := countingService("fast", "nlu", nil)
	c.MustRegister(fast)

	f1 := c.InvokeAsync(context.Background(), "slow", service.Request{Text: "a"})
	<-started                                                                     // the single worker is now busy
	f2 := c.InvokeAsync(context.Background(), "fast", service.Request{Text: "b"}) // fills the queue

	overflowDone := make(chan *future.Future[service.Response], 1)
	go func() {
		overflowDone <- c.InvokeAsync(context.Background(), "fast", service.Request{Text: "c"})
	}()
	var f3 *future.Future[service.Response]
	select {
	case f3 = <-overflowDone:
	case <-time.After(5 * time.Second):
		t.Fatal("InvokeAsync blocked on a saturated pool")
	}
	if _, err := f3.GetTimeout(time.Second); !errors.Is(err, future.ErrPoolSaturated) {
		t.Fatalf("overflow future err = %v, want ErrPoolSaturated", err)
	}

	release <- struct{}{} // let the worker drain
	if resp, err := f1.GetTimeout(5 * time.Second); err != nil || string(resp.Body) != "done" {
		t.Fatalf("f1 = %q, %v", resp.Body, err)
	}
	if _, err := f2.GetTimeout(5 * time.Second); err != nil {
		t.Fatalf("queued future failed: %v", err)
	}
}

func TestInvokeAsyncClosedPoolFailsFast(t *testing.T) {
	c, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := countingService("s1", "nlu", nil)
	c.MustRegister(svc)
	c.Close()
	f := c.InvokeAsync(context.Background(), "s1", service.Request{Text: "x"})
	if _, err := f.GetTimeout(time.Second); !errors.Is(err, future.ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestInvokeCategoryAsyncSaturationSurfacesThroughFuture(t *testing.T) {
	c := newClient(t, Config{AsyncWorkers: 1, AsyncQueue: 1})
	// Buffered: the worker may reach its send before this goroutine
	// reaches the receive, and a dropped signal would hang the test.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker := service.Func{
		Meta: service.Info{Name: "slow", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return service.Response{}, nil
		},
	}
	defer close(release)
	c.MustRegister(blocker)

	_ = c.InvokeAsync(context.Background(), "slow", service.Request{Text: "a"})
	<-started                                                                   // worker busy
	_ = c.InvokeAsync(context.Background(), "slow", service.Request{Text: "b"}) // queue full
	f := c.InvokeCategoryAsync(context.Background(), "nlu", service.Request{Text: "c"})
	if _, err := f.GetTimeout(time.Second); !errors.Is(err, future.ErrPoolSaturated) {
		t.Fatalf("err = %v, want ErrPoolSaturated", err)
	}
}
