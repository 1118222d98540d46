package pipeline

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// runCase is one FuzzRun input decoded: the run's width, policy and
// documents, each document's outcome, and an optional document whose
// fetch cancels the run from outside.
type runCase struct {
	workers  int
	policy   policy
	docs     int
	cancelAt int // -1: no cancel
	outcomes []byte
}

// Document outcome bits.
const (
	fetchFails    = 1 << 0
	analyzeFails  = 1 << 1
	fetchYields   = 1 << 2 // runtime.Gosched before answering
	analyzeYields = 1 << 3
)

// decodeRunCase reads byte 0 as the worker count, bit 0 of byte 1 as the
// policy (its other bits are ignored), byte 2 as the document count,
// byte 3 as the cancelling document and the rest as the documents'
// outcomes. Up to 40 documents, so a run can fail more of them than
// Skipped keeps.
func decodeRunCase(data []byte) runCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := runCase{
		workers:  1 + int(at(0)%4),
		docs:     int(at(2) % 41),
		cancelAt: -1,
	}
	if at(1)&1 == 1 {
		c.policy = skip
	}
	if b := at(3); b >= 128 && c.docs > 0 {
		c.cancelAt = int(b-128) % c.docs
	}
	if len(data) > 4 {
		c.outcomes = data[4:]
	}
	return c
}

// outcome is document i's fuzz byte, success once they run out.
func (c runCase) outcome(i int) byte {
	if i < len(c.outcomes) {
		return c.outcomes[i]
	}
	return 0
}

// runModel is what a run does with the case's documents, one at a time.
type runModel struct {
	kept                       []int    // surviving documents, in order
	skipped                    []docErr // skip-policy failures, in order
	abort                      *docErr  // the failure an abort reports, if any
	fetchFailed, analyzeFailed int64
}

func modelRun(c runCase) runModel {
	var m runModel
	for i := 0; i < c.docs && m.abort == nil; i++ {
		var fail *docErr
		switch o := c.outcome(i); {
		case o&fetchFails != 0:
			fail = &docErr{"fetch", i}
			m.fetchFailed++
		case o&analyzeFails != 0:
			fail = &docErr{"analyze", i}
			m.analyzeFailed++
		}
		switch {
		case fail == nil:
			m.kept = append(m.kept, i)
		case c.policy == skip:
			m.skipped = append(m.skipped, *fail)
		default:
			m.abort = fail
		}
	}
	return m
}

// checkNoRunnerLeft fails the test if a goroutine is still in the
// runner's code once Run has returned. The fuzzing engine starts and
// stops goroutines of its own beside the target, so FuzzRun looks at
// stacks, not at runtime.NumGoroutine (TestRunLeavesNoGoroutines pins the
// count); as there, a worker that has just called Done may still be
// unwinding, so the check yields to it first.
func checkNoRunnerLeft(t *testing.T, c runCase) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for range 1000 {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "repro/internal/pipeline.(*runner).") {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("%+v: a runner goroutine outlived Run:\n%s", c, buf)
}

// FuzzRun checks Run against a sequential model: the surviving documents
// by index, every stage's exact counts, Skipped in document order and
// under its cap, the lowest-index failure as an abort's error, each
// document fetched and analyzed at most once (and analyzed only once
// fetched), and no goroutine left once Run returns. A cancel from outside
// during one document's fetch must end the run with the context's error
// — or with an abort the model places before that document.
func FuzzRun(f *testing.F) {
	f.Add([]byte{3, 0, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRunCase(data)
		m := modelRun(c)
		fetches := make([]atomic.Int32, c.docs)
		analyses := make([]atomic.Int32, c.docs)
		var broken atomic.Value
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := stubRun{
			n: c.docs,
			fetch: func(_ context.Context, i int) error {
				if fetches[i].Add(1) > 1 {
					broken.CompareAndSwap(nil, "a document was fetched twice")
				}
				if i == c.cancelAt {
					cancel()
				}
				o := c.outcome(i)
				if o&fetchYields != 0 {
					runtime.Gosched()
				}
				if o&fetchFails != 0 {
					return docErr{"fetch", i}
				}
				return nil
			},
			analyze: func(_ context.Context, i int) error {
				if analyses[i].Add(1) > 1 || fetches[i].Load() != 1 || c.outcome(i)&fetchFails != 0 {
					broken.CompareAndSwap(nil, "a document was analyzed twice or without its page")
				}
				o := c.outcome(i)
				if o&analyzeYields != 0 {
					runtime.Gosched()
				}
				if o&analyzeFails != 0 {
					return docErr{"analyze", i}
				}
				return nil
			},
		}
		cfg := s.config(t)
		cfg.Workers, cfg.SkipFailedDocs = c.workers, c.policy == skip

		res, err := cfg.Run(ctx, "fuzz")
		checkNoRunnerLeft(t, c)
		if msg := broken.Load(); msg != nil {
			t.Errorf("%+v: %s", c, msg)
		}
		aborted := m.abort != nil && errors.Is(err, *m.abort) &&
			strings.HasPrefix(err.Error(), "pipeline: stage "+m.abort.stage+": ")
		switch {
		case c.cancelAt >= 0:
			if !errors.Is(err, context.Canceled) && !(aborted && m.abort.i < c.cancelAt) {
				t.Fatalf("%+v: Run = %v, want context.Canceled", c, err)
			}
			return
		case m.abort != nil:
			if !aborted {
				t.Fatalf("%+v: Run = %v, want %v", c, err, *m.abort)
			}
			return
		case err != nil:
			t.Fatalf("%+v: Run = %v", c, err)
		}

		got := make([]int, len(res.Docs))
		for j, d := range res.Docs {
			got[j] = d.Index
		}
		if !slices.Equal(got, m.kept) {
			t.Errorf("%+v: docs %v, want %v", c, got, m.kept)
		}
		n, fetched, kept := int64(c.docs), int64(c.docs)-m.fetchFailed, int64(len(m.kept))
		want := []StageStats{
			{Name: "search", Out: n},
			{Name: "fetch", In: n, Out: fetched, Skipped: m.fetchFailed, Failures: uint64(m.fetchFailed)},
			{Name: "analyze", In: fetched, Out: kept, Skipped: m.analyzeFailed, Failures: uint64(m.analyzeFailed)},
			{Name: "aggregate", In: kept, Out: kept},
		}
		for i, st := range res.Stages {
			st.Mean, st.P95 = 0, 0
			if i >= len(want) || st != want[i] {
				t.Errorf("%+v: Stages[%d] = %+v, want %+v", c, i, st, want)
			}
		}
		if len(res.Stages) != len(want) {
			t.Errorf("%+v: %d stages, want %d", c, len(res.Stages), len(want))
		}
		wantSkipped := m.skipped[:min(len(m.skipped), maxSkippedErrors)]
		if len(res.Skipped) != len(wantSkipped) {
			t.Fatalf("%+v: Skipped = %v, want %v", c, res.Skipped, wantSkipped)
		}
		for i, err := range res.Skipped {
			if !errors.Is(err, wantSkipped[i]) {
				t.Errorf("%+v: Skipped[%d] = %v, want %v", c, i, err, wantSkipped[i])
			}
		}
		for i := range c.docs {
			wantAnalyses := int32(1 - c.outcome(i)&fetchFails)
			if fetches[i].Load() != 1 || analyses[i].Load() != wantAnalyses {
				t.Errorf("%+v: d%d fetched %d and analyzed %d times, want 1 and %d", c, i, fetches[i].Load(), analyses[i].Load(), wantAnalyses)
			}
		}
	})
}
