package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// viaCase is one FuzzVia input decoded: a stage's shape, the outcome of
// every item, and an optional item whose run cancels the pipeline from
// outside.
type viaCase struct {
	workers, buffer int
	policy          policy
	items           int
	cancelAt        int // -1: no cancellation
	outcomes        []byte
}

// Item outcome bits.
const (
	itemFails  = 1 << 0
	itemYields = 1 << 1 // runtime.Gosched before answering
)

// decodeViaCase reads byte 0 as the worker count, byte 1 as the buffer,
// bit 0 of byte 2 as the policy (its other bits are ignored), byte 3 as
// the item count, byte 4 as the cancelling item and the rest as the items'
// outcomes.
func decodeViaCase(data []byte) viaCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := viaCase{
		workers:  1 + int(at(0)%4),
		buffer:   int(at(1) % 5), // 0 means workers
		items:    int(at(3) % 33),
		cancelAt: -1,
	}
	if at(2)&1 == 1 {
		c.policy = skip
	}
	if b := at(4); b >= 128 && c.items > 0 {
		c.cancelAt = int(b-128) % c.items
	}
	if len(data) > 5 {
		c.outcomes = data[5:]
	}
	return c
}

// outcome is item i's fuzz byte, success once they run out.
func (c viaCase) outcome(i int) byte {
	if i < len(c.outcomes) {
		return c.outcomes[i]
	}
	return 0
}

// ring is how many items the stage may hold: workers+buffer.
func (c viaCase) ring() int {
	if c.buffer < 1 {
		return 2 * c.workers
	}
	return c.workers + c.buffer
}

// viaModel is what a stage does with the case's items, one at a time.
type viaModel struct {
	out     []int // delivered values, in order
	skipped int
	abortAt int // first item that fails under abort, or -1
}

func modelVia(c viaCase) viaModel {
	m := viaModel{abortAt: -1}
	for i := 0; i < c.items && m.abortAt < 0; i++ {
		switch {
		case c.outcome(i)&itemFails == 0:
			m.out = append(m.out, 2*i+1)
		case c.policy == skip:
			m.skipped++
		default:
			m.abortAt = i
		}
	}
	return m
}

// itemErr is the failure of one item.
type itemErr int

func (e itemErr) Error() string { return fmt.Sprintf("item %d", int(e)) }

// FuzzVia checks the slot-ring stage against a sequential model: the
// same values in the same order, exact counters, every item run at most
// once, the first failing item in stream order as an abort's error, no
// more than workers+buffer items held at once, and no goroutine left once
// wait returns. An optional cancel from outside mid-stream must leave a
// prefix of the model's output and the same clean shutdown.
func FuzzVia(f *testing.F) {
	f.Add([]byte{3, 0, 0, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeViaCase(data)
		m := modelVia(c)
		goroutines := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := newPipeline(ctx)
		runs := make([]atomic.Int32, c.items)
		var delivered atomic.Int64
		var broken atomic.Value
		out := via(source(p, "src", intRange(c.items)), stage[int, int]{
			name: "fuzz", workers: c.workers, buffer: c.buffer, policy: c.policy,
			fn: func(_ context.Context, i int) (int, error) {
				if runs[i].Add(1) > 1 {
					broken.CompareAndSwap(nil, fmt.Sprintf("item %d ran twice", i))
				}
				// Item i holds a cell only once item i-ring has freed its
				// own, which the collector does after handing it on; the
				// sink may not have counted the last hand-off yet.
				need := 0
				for j := 0; j <= i-c.ring(); j++ {
					if c.outcome(j)&itemFails == 0 {
						need++
					}
				}
				if got := delivered.Load(); got < int64(need-1) {
					broken.CompareAndSwap(nil, fmt.Sprintf("item %d started with %d items delivered, want ≥ %d", i, got, need-1))
				}
				if i == c.cancelAt {
					cancel()
				}
				o := c.outcome(i)
				if o&itemYields != 0 {
					runtime.Gosched()
				}
				if o&itemFails != 0 {
					return 0, itemErr(i)
				}
				return 2*i + 1, nil
			},
		})
		var got []int
		drain(out, "sink", func(_ context.Context, v int) error {
			got = append(got, v)
			delivered.Add(1)
			return nil
		})
		err := p.wait()

		if msg := broken.Load(); msg != nil {
			t.Errorf("%+v: %s", c, msg)
		}
		var ie itemErr
		aborted := errors.As(err, &ie)
		if aborted && int(ie) != m.abortAt {
			t.Errorf("%+v: wait = %v, want item %d's failure", c, err, m.abortAt)
		}
		st := p.stats()[1]
		if st.Out != int64(len(got)) {
			t.Errorf("%+v: stage Out = %d, sink got %d", c, st.Out, len(got))
		}
		switch {
		case c.cancelAt >= 0:
			// Cancelled from outside: either that, or an abort the
			// model places before the cancelling item.
			if !errors.Is(err, context.Canceled) && !(aborted && m.abortAt >= 0 && m.abortAt < c.cancelAt) {
				t.Errorf("%+v: wait = %v, want context.Canceled", c, err)
			}
			if len(got) > len(m.out) || !slices.Equal(got, m.out[:len(got)]) {
				t.Errorf("%+v: got %v, want a prefix of %v", c, got, m.out)
			}
		case m.abortAt >= 0:
			if !aborted {
				t.Errorf("%+v: wait = %v, want item %d's failure", c, err, m.abortAt)
			}
			if !slices.Equal(got, m.out) {
				t.Errorf("%+v: got %v, want %v", c, got, m.out)
			}
			if st.In < int64(m.abortAt+1) || st.In > int64(c.items) || st.Skipped != 0 {
				t.Errorf("%+v: stats %+v, want In in [%d, %d], none skipped", c, st, m.abortAt+1, c.items)
			}
		default:
			if err != nil {
				t.Errorf("%+v: wait = %v", c, err)
			}
			if !slices.Equal(got, m.out) {
				t.Errorf("%+v: got %v, want %v", c, got, m.out)
			}
			if st.In != int64(c.items) || st.Out != int64(len(m.out)) || st.Skipped != int64(m.skipped) || st.Failures != uint64(m.skipped) {
				t.Errorf("%+v: stats %+v, want In %d Out %d Skipped %d Failures %d",
					c, st, c.items, len(m.out), m.skipped, m.skipped)
			}
		}

		// Every goroutine the run started has returned or is returning;
		// give the last ones a moment to be gone.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%+v: %d goroutines after wait, %d before the run", c, runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
