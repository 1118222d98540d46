package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/service"
)

// saturate registers the service "slow", whose calls block until the
// returned release runs, and fills the client's async pool with it: every
// worker busy and every queue slot taken. It returns the futures of the
// busy and of the queued calls.
func saturate(t *testing.T, c *Client) (busy, queued []*future.Future[service.Response], release func()) {
	t.Helper()
	// One slot per worker: the busy calls' signals must all land. The
	// queued calls run after release, when nobody listens any more.
	started := make(chan struct{}, asyncWorkers)
	unblock := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release) // runs before the client's Close, which waits for the workers
	c.mustRegister(service.Func{
		Meta: service.Info{Name: "slow", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-unblock
			return service.Response{Body: []byte("done")}, nil
		},
	})
	for i := 0; i < asyncWorkers; i++ {
		busy = append(busy, c.InvokeAsync(context.Background(), "slow", service.Request{Text: "busy"}))
	}
	for range busy {
		<-started // every worker is now busy
	}
	for i := 0; i < asyncQueue; i++ {
		queued = append(queued, c.InvokeAsync(context.Background(), "slow", service.Request{Text: "queued"}))
	}
	return busy, queued, release
}

// TestInvokeAsyncSaturationSurfacesThroughFuture is the regression test for
// the blocking-submit bug: with the pool's workers busy and its queue
// full, a further InvokeAsync must return immediately with a future failed
// with future.ErrPoolSaturated instead of blocking the caller.
func TestInvokeAsyncSaturationSurfacesThroughFuture(t *testing.T) {
	c := newClient(t, Config{})
	fast, _ := countingService("fast", "nlu", nil)
	c.mustRegister(fast)
	busy, queued, release := saturate(t, c)

	overflowDone := make(chan *future.Future[service.Response], 1)
	go func() {
		overflowDone <- c.InvokeAsync(context.Background(), "fast", service.Request{Text: "c"})
	}()
	var f *future.Future[service.Response]
	select {
	case f = <-overflowDone:
	case <-time.After(5 * time.Second):
		t.Fatal("InvokeAsync blocked on a saturated pool")
	}
	if _, err := f.Get(); !errors.Is(err, future.ErrPoolSaturated) {
		t.Fatalf("overflow future err = %v, want ErrPoolSaturated", err)
	}

	release() // let the workers drain
	for _, f := range append(busy, queued...) {
		if resp, err := f.Get(); err != nil || string(resp.Body) != "done" {
			t.Fatalf("accepted future = %q, %v", resp.Body, err)
		}
	}
}

func TestInvokeAsyncClosedPoolFailsFast(t *testing.T) {
	c, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := countingService("s1", "nlu", nil)
	c.mustRegister(svc)
	c.Close()
	f := c.InvokeAsync(context.Background(), "s1", service.Request{Text: "x"})
	if _, err := f.Get(); !errors.Is(err, future.ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}
