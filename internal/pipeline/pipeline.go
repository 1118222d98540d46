// Package pipeline runs the paper's Fig. 3/5 analytics loop — query →
// search → fetch → NLU-analyze → aggregate → persist → knowledge-base sink
// — as AnalysisConfig.Run and RunDocs (analysis.go), on the small private
// streaming engine in this file: typed stages connected by channels, a
// number of fan-out workers per stage, context cancellation, a per-stage
// error policy (skip or abort), backpressure, and per-stage counters plus
// latency summaries. An item is tried once; retries belong to the SDK
// chain the stages invoke services through.
//
// Ordering: a stage dispatches items to its workers in arrival order and
// collects results in that same order, so parallelism inside a stage never
// reorders the stream. Downstream stages (and collect) therefore see items
// in exactly the order the source emitted them, minus skipped ones.
//
// Backpressure: every inter-stage channel is unbuffered and every stage
// holds at most workers+buffer items in flight, so a slow stage throttles
// the stages upstream of it instead of letting queues grow without bound.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// policy selects how a stage responds to an item whose processing failed.
type policy int

const (
	// abort cancels the whole pipeline; wait returns the failing item's
	// error. The zero value: losing data must be opted into.
	abort policy = iota
	// skip drops the failed item, counts it in the stage's stats, and
	// keeps the stream flowing — the right policy when one bad document
	// must not sink a thousand good ones.
	skip
)

// stage describes one processing step: fn applied to every item of the
// input stream by workers concurrent workers.
type stage[In, Out any] struct {
	// name identifies the stage in stats and spans.
	name string
	// workers is the fan-out width. Values < 1 mean 1 (sequential).
	workers int
	// buffer is how many completed-but-undelivered results the stage may
	// hold beyond its in-flight work, bounding its memory use. Values < 1
	// mean workers.
	buffer int
	// policy is what to do when fn fails: abort (default) or skip.
	policy policy
	// fn transforms one item. It must honor ctx cancellation for the
	// pipeline to shut down promptly.
	fn func(ctx context.Context, item In) (Out, error)
}

// pipeline is one run of the engine: build it with newPipeline, wire
// stages with sourceFunc / via / drain / collect, then wait for
// completion. A pipeline is single-use.
type pipeline struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	stages  []*counters
	skipped []error // first few skip-policy errors, for diagnosis
}

// maxSkippedErrors bounds how many skip-policy errors a pipeline retains.
const maxSkippedErrors = 32

// newPipeline returns an empty pipeline whose stages run under a context
// derived from ctx: cancelling ctx cancels the pipeline.
func newPipeline(ctx context.Context) *pipeline {
	runCtx, cancel := context.WithCancelCause(ctx)
	return &pipeline{ctx: runCtx, cancel: cancel}
}

// wait blocks until every stage has drained and returns the pipeline's
// outcome: nil on success, the aborting stage's error after an abort, or
// the context cause if the surrounding context was cancelled.
func (p *pipeline) wait() error {
	p.wg.Wait()
	cancelled := p.ctx.Err() != nil
	cause := context.Cause(p.ctx)
	p.cancel(nil) // release the context once everything has drained
	if !cancelled {
		return nil
	}
	if cause != nil {
		return cause
	}
	return context.Canceled
}

// skippedErrors returns the errors behind skipped items (bounded; the
// per-stage counts in stats are exact).
func (p *pipeline) skippedErrors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.skipped))
	copy(out, p.skipped)
	return out
}

func (p *pipeline) noteSkip(stage string, err error) {
	p.mu.Lock()
	if len(p.skipped) < maxSkippedErrors {
		p.skipped = append(p.skipped, fmt.Errorf("pipeline: stage %s: %w", stage, err))
	}
	p.mu.Unlock()
}

func (p *pipeline) fail(stage string, err error) {
	p.cancel(fmt.Errorf("pipeline: stage %s: %w", stage, err))
}

// StageStats is a point-in-time summary of one stage.
type StageStats struct {
	Name    string
	In      int64 // items received
	Out     int64 // items emitted downstream
	Skipped int64 // items dropped under AnalysisConfig.SkipFailedDocs
	// Latency summarizes per-item processing time (successful items);
	// Failures counts failed items. Both come from the stage monitor.
	Mean     time.Duration
	P95      time.Duration
	Failures uint64
}

// stats summarizes every stage in wiring order. A source stage records no
// latency and has no monitor, so its Mean, P95 and Failures are 0.
func (p *pipeline) stats() []StageStats {
	p.mu.Lock()
	stages := make([]*counters, len(p.stages))
	copy(stages, p.stages)
	p.mu.Unlock()
	out := make([]StageStats, 0, len(stages))
	for _, c := range stages {
		var snap metrics.Snapshot
		if c.mon != nil {
			snap = c.mon.Snapshot()
		}
		out = append(out, StageStats{
			Name:     c.name,
			In:       c.in.Load(),
			Out:      c.out.Load(),
			Skipped:  c.skipped.Load(),
			Mean:     snap.MeanLatency,
			P95:      snap.P95Latency,
			Failures: snap.Failures,
		})
	}
	return out
}

// counters is one stage's live counter set, with the monitor the stage
// records each item's latency into (nil for a source stage).
type counters struct {
	name             string
	mon              *metrics.Monitor
	in, out, skipped atomic.Int64
}

func (p *pipeline) newCounters(name string, mon *metrics.Monitor) *counters {
	c := &counters{name: name, mon: mon}
	p.mu.Lock()
	p.stages = append(p.stages, c)
	p.mu.Unlock()
	return c
}

// flow is a typed stream of items moving between stages of one pipeline.
type flow[T any] struct {
	p  *pipeline
	ch <-chan T
}

// source emits items, in order, as a new flow.
func source[T any](p *pipeline, name string, items []T) *flow[T] {
	return sourceFunc(p, name, func(_ context.Context, emit func(T) error) error {
		for _, item := range items {
			if err := emit(item); err != nil {
				return err
			}
		}
		return nil
	})
}

// sourceFunc runs gen as the pipeline's source: each emit call feeds one
// item downstream, blocking for backpressure and returning an error once
// the pipeline is cancelled (gen should stop then). A non-nil error from
// gen — other than the cancellation error emit handed it — aborts the
// pipeline.
func sourceFunc[T any](p *pipeline, name string, gen func(ctx context.Context, emit func(T) error) error) *flow[T] {
	c := p.newCounters(name, nil)
	out := make(chan T)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(out)
		// When the pipeline context carries a trace span (the run's root),
		// the source runs under its own child span, so SDK invocations made
		// by gen — a search call, say — nest inside the stage span.
		sp := trace.SpanFromContext(p.ctx).Child(name)
		genCtx := p.ctx
		if sp.Recording() {
			genCtx = trace.ContextWithSpan(genCtx, sp)
		}
		emit := func(v T) error {
			select {
			case out <- v:
				c.out.Add(1)
				return nil
			case <-p.ctx.Done():
				return context.Cause(p.ctx)
			}
		}
		err := gen(genCtx, emit)
		sp.SetInt("emitted", c.out.Load())
		if err != nil && p.ctx.Err() == nil {
			sp.SetError(err)
			p.fail(name, err)
		}
		sp.End()
	}()
	return &flow[T]{p: p, ch: out}
}

// via connects f through stage s and returns the stage's output flow.
//
// A stage is a ring of workers+buffer cells and three goroutine roles.
// The dispatcher takes a cell for each item it pulls from upstream — the
// cell after the one it took last, so cells are taken in stream order —
// writes the item into it and queues the cell's index for the workers.
// The stage's workers long-lived goroutines run s.fn on the queued cells,
// write each result into its cell and report the index on the completion
// channel. The collector, which receives completions in any order, hands
// results downstream in dispatch order and then frees their cells; the
// dispatcher blocks while every cell is taken, which is the stage's
// backpressure. Each cell has one owner at a time — dispatcher, then a
// worker, then the collector — and every hand-over is a channel
// operation, so the ring needs no lock and an item costs no allocation.
func via[In, Out any](f *flow[In], s stage[In, Out]) *flow[Out] {
	p := f.p
	workers := max(s.workers, 1)
	buffer := s.buffer
	if buffer < 1 {
		buffer = workers
	}
	mon := metrics.NewMonitor(s.name)
	c := p.newCounters(s.name, mon)
	parent := trace.SpanFromContext(p.ctx)
	out := make(chan Out)

	n := workers + buffer
	cells := make([]cell[In, Out], n)
	// taken holds one token per cell the dispatcher has taken and the
	// collector not yet freed: sending takes a cell, receiving frees the
	// oldest. queued carries cell indices from dispatcher to workers,
	// completed from workers to collector; neither can fill, since at
	// most n cells are taken.
	taken := make(chan struct{}, n)
	queued := make(chan int, n)
	completed := make(chan int, n)

	p.wg.Add(2 + workers)
	go func() { // dispatcher
		defer p.wg.Done()
		defer close(queued)
		for next := 0; ; next = (next + 1) % n {
			var item In
			var ok bool
			select {
			case item, ok = <-f.ch:
				if !ok {
					return
				}
			case <-p.ctx.Done():
				return
			}
			c.in.Add(1)
			select {
			case taken <- struct{}{}:
			case <-p.ctx.Done():
				return
			}
			cells[next].item = item
			queued <- next
		}
	}()
	var live atomic.Int32
	live.Store(int32(workers))
	worker := func() {
		defer p.wg.Done()
		for i := range queued {
			cl := &cells[i]
			if p.ctx.Err() != nil {
				// Cancelled while queued: fail fast rather than run
				// doomed work.
				cl.err = context.Cause(p.ctx)
			} else {
				cl.v, cl.err = runItem(p, s, mon, parent, cl.item)
			}
			var zero In
			cl.item = zero
			completed <- i
		}
		if live.Add(-1) == 0 {
			close(completed)
		}
	}
	for range workers {
		go worker()
	}
	go func() { // collector
		defer p.wg.Done()
		defer close(out)
		ready := make([]bool, n)
		head := 0
		for i := range completed {
			ready[i] = true
			for ; ready[head]; head = (head + 1) % n {
				ready[head] = false
				cl := &cells[head]
				v, err := cl.v, cl.err
				*cl = cell[In, Out]{}
				switch {
				case p.ctx.Err() != nil:
					// Shutting down: drain, and deliver nothing more, so
					// what went downstream is a prefix of the stream.
				case err == nil:
					select {
					case out <- v:
						c.out.Add(1)
					case <-p.ctx.Done():
					}
				case s.policy == skip:
					c.skipped.Add(1)
					p.noteSkip(s.name, err)
				default:
					p.fail(s.name, err)
				}
				<-taken
			}
		}
	}()
	return &flow[Out]{p: p, ch: out}
}

// cell is one slot of a via stage's ordering ring: the item a worker
// processes, then the result the collector delivers.
type cell[In, Out any] struct {
	item In
	v    Out
	err  error
}

// runItem applies s.fn to one item, recording its latency and outcome in
// the stage monitor. On a traced run each item gets a span (named for the
// stage) whose context flows into fn, so SDK invocations made while
// processing the item join the run's trace tree.
func runItem[In, Out any](p *pipeline, s stage[In, Out], mon *metrics.Monitor, parent trace.Span, item In) (Out, error) {
	sp := parent.Child(s.name)
	ctx := p.ctx
	if sp.Recording() {
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	start := time.Now()
	v, err := s.fn(ctx, item)
	mon.Record(metrics.Observation{Latency: time.Since(start), Err: err})
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return v, err
}

// drain terminates a flow: fn runs once per item, sequentially, in stream
// order. A non-nil error from fn aborts the pipeline.
func drain[T any](f *flow[T], name string, fn func(ctx context.Context, item T) error) {
	p := f.p
	mon := metrics.NewMonitor(name)
	c := p.newCounters(name, mon)
	parent := trace.SpanFromContext(p.ctx)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for item := range f.ch {
			c.in.Add(1)
			sp := parent.Child(name)
			ctx := p.ctx
			if sp.Recording() {
				ctx = trace.ContextWithSpan(ctx, sp)
			}
			start := time.Now()
			err := fn(ctx, item)
			mon.Record(metrics.Observation{Latency: time.Since(start), Err: err})
			if err != nil {
				sp.SetError(err)
				sp.End()
				if p.ctx.Err() == nil {
					p.fail(name, err)
				}
				continue // keep draining so upstream unblocks
			}
			sp.End()
			c.out.Add(1)
		}
	}()
}

// collect terminates a flow by gathering every item, in stream order, into
// the slice it returns, which is complete once the pipeline's wait returns.
func collect[T any](f *flow[T], name string) *[]T {
	var items []T
	drain(f, name, func(_ context.Context, item T) error {
		items = append(items, item)
		return nil
	})
	return &items
}
