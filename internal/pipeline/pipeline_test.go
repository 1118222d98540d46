package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intRange returns [0, n).
func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSingleStagePreservesOrder(t *testing.T) {
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(100))
	doubled := via(flow, stage[int, int]{
		name:    "double",
		workers: 8,
		fn: func(_ context.Context, v int) (int, error) {
			// Stagger completion so out-of-order bugs would surface.
			time.Sleep(time.Duration(v%3) * time.Millisecond)
			return v * 2, nil
		},
	})
	col := collect(doubled, "collect")
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	items := *col
	if len(items) != 100 {
		t.Fatalf("collected %d items, want 100", len(items))
	}
	for i, v := range items {
		if v != i*2 {
			t.Fatalf("items[%d] = %d, want %d (order not preserved)", i, v, i*2)
		}
	}
}

func TestMultiStageChain(t *testing.T) {
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(50))
	strs := via(flow, stage[int, string]{
		name:    "fmt",
		workers: 4,
		fn:      func(_ context.Context, v int) (string, error) { return fmt.Sprintf("item-%03d", v), nil },
	})
	lens := via(strs, stage[string, int]{
		name:    "len",
		workers: 2,
		fn:      func(_ context.Context, s string) (int, error) { return len(s), nil },
	})
	col := collect(lens, "collect")
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	if len(*col) != 50 {
		t.Fatalf("collected %d, want 50", len(*col))
	}
	for _, v := range *col {
		if v != len("item-000") {
			t.Fatalf("bad length %d", v)
		}
	}
}

func TestParallelStageOverlapsLatency(t *testing.T) {
	const items, delay, workers = 16, 5 * time.Millisecond, 8
	elapsed := make(map[int]time.Duration)
	for _, w := range []int{1, workers} {
		p := newPipeline(context.Background())
		flow := source(p, "src", intRange(items))
		slow := via(flow, stage[int, int]{
			name:    "slow",
			workers: w,
			fn: func(_ context.Context, v int) (int, error) {
				time.Sleep(delay)
				return v, nil
			},
		})
		drain(slow, "sink", func(context.Context, int) error { return nil })
		start := time.Now()
		if err := p.wait(); err != nil {
			t.Fatal(err)
		}
		elapsed[w] = time.Since(start)
	}
	// 16 items × 5 ms sequential ≈ 80 ms; 8 workers ≈ 10 ms. Assert a
	// conservative 2x so loaded CI machines cannot flake the test.
	if elapsed[workers]*2 > elapsed[1] {
		t.Errorf("parallel (%v) not meaningfully faster than sequential (%v)", elapsed[workers], elapsed[1])
	}
}

func TestAbortPolicyStopsPipeline(t *testing.T) {
	boom := errors.New("boom")
	var processed atomic.Int64
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(1000))
	out := via(flow, stage[int, int]{
		name:    "explode",
		workers: 2,
		fn: func(_ context.Context, v int) (int, error) {
			if v == 5 {
				return 0, boom
			}
			processed.Add(1)
			return v, nil
		},
	})
	drain(out, "sink", func(context.Context, int) error { return nil })
	err := p.wait()
	if !errors.Is(err, boom) {
		t.Fatalf("wait = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "explode") {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if n := processed.Load(); n >= 1000 {
		t.Errorf("abort did not stop the stream: %d items processed", n)
	}
}

func TestSkipPolicyDropsFailedItems(t *testing.T) {
	bad := errors.New("bad item")
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(20))
	out := via(flow, stage[int, int]{
		name:    "picky",
		workers: 4,
		policy:  skip,
		fn: func(_ context.Context, v int) (int, error) {
			if v%5 == 0 {
				return 0, fmt.Errorf("%w: %d", bad, v)
			}
			return v, nil
		},
	})
	col := collect(out, "collect")
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	if len(*col) != 16 { // 20 minus {0,5,10,15}
		t.Fatalf("collected %d, want 16", len(*col))
	}
	// Order preserved among survivors.
	prev := -1
	for _, v := range *col {
		if v <= prev {
			t.Fatalf("order not preserved: %v", *col)
		}
		prev = v
	}
	var st StageStats
	for _, s := range p.stats() {
		if s.Name == "picky" {
			st = s
		}
	}
	if st.In != 20 || st.Out != 16 || st.Skipped != 4 {
		t.Errorf("stats = %+v, want in=20 out=16 skipped=4", st)
	}
	errs := p.skippedErrors()
	if len(errs) != 4 {
		t.Fatalf("SkippedErrors = %d, want 4", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, bad) {
			t.Errorf("skipped error %v does not wrap the cause", err)
		}
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var processed atomic.Int64
	p := newPipeline(ctx)
	flow := source(p, "src", intRange(10_000))
	out := via(flow, stage[int, int]{
		name:    "work",
		workers: 2,
		fn: func(c context.Context, v int) (int, error) {
			once.Do(func() { close(started) })
			processed.Add(1)
			select {
			case <-c.Done():
				return 0, c.Err()
			case <-time.After(100 * time.Microsecond):
				return v, nil
			}
		},
	})
	drain(out, "sink", func(context.Context, int) error { return nil })
	<-started
	cancel()
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not shut down after cancellation")
	}
	if n := processed.Load(); n >= 10_000 {
		t.Errorf("cancellation did not cut the stream short (%d processed)", n)
	}
}

func TestSourceFuncErrorAborts(t *testing.T) {
	genErr := errors.New("generator failed")
	p := newPipeline(context.Background())
	flow := sourceFunc(p, "gen", func(_ context.Context, emit func(int) error) error {
		if err := emit(1); err != nil {
			return err
		}
		return genErr
	})
	drain(flow, "sink", func(context.Context, int) error { return nil })
	if err := p.wait(); !errors.Is(err, genErr) {
		t.Fatalf("wait = %v, want %v", err, genErr)
	}
}

func TestDrainErrorAborts(t *testing.T) {
	sinkErr := errors.New("sink failed")
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(100))
	drain(flow, "sink", func(_ context.Context, v int) error {
		if v == 3 {
			return sinkErr
		}
		return nil
	})
	if err := p.wait(); !errors.Is(err, sinkErr) {
		t.Fatalf("wait = %v, want %v", err, sinkErr)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(25))
	out := via(flow, stage[int, int]{
		name:    "work",
		workers: 4,
		fn: func(_ context.Context, v int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return v, nil
		},
	})
	collect(out, "collect")
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	stats := p.stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d stages, want 3", len(stats))
	}
	names := []string{"src", "work", "collect"}
	for i, s := range stats {
		if s.Name != names[i] {
			t.Errorf("stage %d = %q, want %q (wiring order)", i, s.Name, names[i])
		}
	}
	work := stats[1]
	if work.In != 25 || work.Out != 25 {
		t.Errorf("work in/out = %d/%d, want 25/25", work.In, work.Out)
	}
	if work.Mean <= 0 {
		t.Error("work stage recorded no latency")
	}
	if work.Failures != 0 || stats[0].Mean != 0 {
		t.Errorf("work failures = %d, source mean = %v, want 0 and 0", work.Failures, stats[0].Mean)
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	const workers, buffer = 2, 1
	var inFlight, maxSeen atomic.Int64
	gate := make(chan struct{})
	p := newPipeline(context.Background())
	flow := source(p, "src", intRange(64))
	out := via(flow, stage[int, int]{
		name:    "gated",
		workers: workers,
		buffer:  buffer,
		fn: func(_ context.Context, v int) (int, error) {
			cur := inFlight.Add(1)
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return v, nil
		},
	})
	drain(out, "sink", func(context.Context, int) error { return nil })
	// Let the pipeline saturate, then release everything.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	if maxSeen.Load() > workers {
		t.Errorf("%d items executing concurrently, want <= %d workers", maxSeen.Load(), workers)
	}
}

func TestWaitReturnsNilOnEmptySource(t *testing.T) {
	p := newPipeline(context.Background())
	flow := source(p, "src", []int(nil))
	col := collect(via(flow, stage[int, int]{
		name: "noop",
		fn:   func(_ context.Context, v int) (int, error) { return v, nil },
	}), "collect")
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	if len(*col) != 0 {
		t.Fatalf("collected %d from empty source", len(*col))
	}
}
