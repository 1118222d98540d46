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
// every attempt at every item, and an optional item whose first attempt
// cancels the run from outside.
type viaCase struct {
	workers, buffer, retries int
	policy                   Policy
	items                    int
	cancelAt                 int // -1: no cancellation
	outcomes                 []byte
}

// Attempt outcome bits.
const (
	attemptFails  = 1 << 0
	attemptYields = 1 << 1 // runtime.Gosched before answering
)

func decodeViaCase(data []byte) viaCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := viaCase{
		workers:  1 + int(at(0)%4),
		buffer:   int(at(1) % 5), // 0 means Workers
		retries:  int(at(2)>>1) % 3,
		items:    int(at(3) % 33),
		cancelAt: -1,
	}
	if at(2)&1 == 1 {
		c.policy = Skip
	}
	if b := at(4); b >= 128 && c.items > 0 {
		c.cancelAt = int(b-128) % c.items
	}
	if len(data) > 5 {
		c.outcomes = data[5:]
	}
	return c
}

// outcome is attempt a at item i: the fuzz bytes in item-major order,
// success once they run out.
func (c viaCase) outcome(i, a int) byte {
	if k := i*(c.retries+1) + a; k < len(c.outcomes) {
		return c.outcomes[k]
	}
	return 0
}

// ring is how many items the stage may hold: Workers+Buffer.
func (c viaCase) ring() int {
	if c.buffer < 1 {
		return 2 * c.workers
	}
	return c.workers + c.buffer
}

// viaModel is what a stage does with the case's items, one at a time.
type viaModel struct {
	ok        []bool // item i succeeds within its retries
	out       []int  // delivered values, in order
	retries   int    // extra attempts, all items run to the end
	skipped   int
	abortAt   int // first item that fails for good under Abort, or -1
	retriesTo int // extra attempts up to and including abortAt
}

func modelVia(c viaCase) viaModel {
	m := viaModel{ok: make([]bool, c.items), abortAt: -1}
	for i := 0; i < c.items; i++ {
		extra := c.retries
		for a := 0; a <= c.retries; a++ {
			if c.outcome(i, a)&attemptFails == 0 {
				m.ok[i], extra = true, a
				break
			}
		}
		m.retries += extra
		if m.abortAt >= 0 {
			continue
		}
		m.retriesTo += extra
		switch {
		case m.ok[i]:
			m.out = append(m.out, 2*i+1)
		case c.policy == Skip:
			m.skipped++
		default:
			m.abortAt = i
		}
	}
	return m
}

// attemptErr is the failure of one attempt at one item.
type attemptErr struct{ item, attempt int }

func (e attemptErr) Error() string { return fmt.Sprintf("item %d attempt %d", e.item, e.attempt) }

// FuzzVia checks the slot-ring stage against a sequential model: the
// same values in the same order, exact counters, the first failing item
// in stream order as an Abort's error, no more than Workers+Buffer items
// held at once, and no goroutine left once Wait returns. An optional
// cancel from outside mid-stream must leave a prefix of the model's
// output and the same clean shutdown.
func FuzzVia(f *testing.F) {
	f.Add([]byte{3, 0, 0, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeViaCase(data)
		m := modelVia(c)
		goroutines := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := New(ctx)
		attempts := make([]atomic.Int32, c.items)
		var delivered atomic.Int64
		var overfull atomic.Value
		stage := Via(Source(p, "src", intRange(c.items)), Stage[int, int]{
			Name: "fuzz", Workers: c.workers, Buffer: c.buffer, Policy: c.policy, Retries: c.retries,
			Fn: func(_ context.Context, i int) (int, error) {
				a := int(attempts[i].Add(1)) - 1
				if a == 0 {
					// Item i holds a cell only once item i-ring has
					// freed its own, which the collector does after
					// handing it on; the sink may not have counted the
					// last hand-off yet.
					need := 0
					for j := 0; j <= i-c.ring(); j++ {
						if m.ok[j] {
							need++
						}
					}
					if got := delivered.Load(); got < int64(need-1) {
						overfull.CompareAndSwap(nil, fmt.Sprintf("item %d started with %d items delivered, want ≥ %d", i, got, need-1))
					}
					if i == c.cancelAt {
						cancel()
					}
				}
				o := c.outcome(i, a)
				if o&attemptYields != 0 {
					runtime.Gosched()
				}
				if o&attemptFails != 0 {
					return 0, attemptErr{i, a}
				}
				return 2*i + 1, nil
			},
		})
		var got []int
		Drain(stage, "sink", func(_ context.Context, v int) error {
			got = append(got, v)
			delivered.Add(1)
			return nil
		})
		err := p.Wait()

		if msg := overfull.Load(); msg != nil {
			t.Errorf("%+v: more than Workers+Buffer items in the stage: %s", c, msg)
		}
		var ae attemptErr
		aborted := errors.As(err, &ae)
		if aborted && (ae.item != m.abortAt || ae.attempt != c.retries) {
			t.Errorf("%+v: Wait = %v, want the last attempt at item %d", c, err, m.abortAt)
		}
		st := p.Stats()[1]
		if st.Out != int64(len(got)) {
			t.Errorf("%+v: stage Out = %d, sink got %d", c, st.Out, len(got))
		}
		switch {
		case c.cancelAt >= 0:
			// Cancelled from outside: either that, or an abort the
			// model places before the cancelling item.
			if !errors.Is(err, context.Canceled) && !(aborted && m.abortAt >= 0 && m.abortAt < c.cancelAt) {
				t.Errorf("%+v: Wait = %v, want context.Canceled", c, err)
			}
			if len(got) > len(m.out) || !slices.Equal(got, m.out[:len(got)]) {
				t.Errorf("%+v: got %v, want a prefix of %v", c, got, m.out)
			}
		case m.abortAt >= 0:
			if !aborted {
				t.Errorf("%+v: Wait = %v, want item %d's failure", c, err, m.abortAt)
			}
			if !slices.Equal(got, m.out) {
				t.Errorf("%+v: got %v, want %v", c, got, m.out)
			}
			if st.In < int64(m.abortAt+1) || st.In > int64(c.items) || st.Skipped != 0 ||
				st.Retries < int64(m.retriesTo) || st.Retries > int64(m.retries) {
				t.Errorf("%+v: stats %+v, want In in [%d, %d], Retries in [%d, %d], none skipped",
					c, st, m.abortAt+1, c.items, m.retriesTo, m.retries)
			}
		default:
			if err != nil {
				t.Errorf("%+v: Wait = %v", c, err)
			}
			if !slices.Equal(got, m.out) {
				t.Errorf("%+v: got %v, want %v", c, got, m.out)
			}
			if st.In != int64(c.items) || st.Out != int64(len(m.out)) || st.Skipped != int64(m.skipped) || st.Retries != int64(m.retries) {
				t.Errorf("%+v: stats %+v, want In %d Out %d Skipped %d Retries %d",
					c, st, c.items, len(m.out), m.skipped, m.retries)
			}
		}

		// Every goroutine the run started has returned or is returning;
		// give the last ones a moment to be gone.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%+v: %d goroutines after Wait, %d before the run", c, runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
