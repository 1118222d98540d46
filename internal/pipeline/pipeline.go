// Package pipeline implements a generic staged dataflow engine: typed
// stages connected by bounded channels, with a configurable number of
// fan-out workers per stage, context cancellation, per-stage error policy
// (skip, retry, abort), natural backpressure, and per-stage counters plus
// latency summaries fed into internal/metrics.
//
// The engine exists for the paper's core workload — the Fig. 3/5 loop
// search → fetch → analyze → aggregate → store → infer — which
// analysis.go packages as the canonical AnalysisPipeline, but the engine
// itself is workload-agnostic: any staged transformation over a stream of
// items can run on it.
//
// Ordering: a stage dispatches items to its workers in arrival order and
// collects results in that same order, so parallelism inside a stage never
// reorders the stream. Downstream stages (and Collect) therefore see items
// in exactly the order the source emitted them, minus skipped ones.
//
// Backpressure: every inter-stage channel is unbuffered and every stage
// holds at most Workers+Buffer items in flight, so a slow stage throttles
// the stages upstream of it instead of letting queues grow without bound.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Policy selects how a stage responds to an item whose processing failed
// (after the stage's retries, if any, are exhausted).
type Policy int

const (
	// Abort cancels the whole pipeline; Wait returns the failing item's
	// error. The zero value: losing data must be opted into.
	Abort Policy = iota
	// Skip drops the failed item, counts it in the stage's stats, and
	// keeps the stream flowing — the right policy when one bad document
	// must not sink a thousand good ones.
	Skip
)

// Stage describes one processing step: Fn applied to every item of the
// input stream by Workers concurrent workers.
type Stage[In, Out any] struct {
	// Name identifies the stage in stats and metrics. Required.
	Name string
	// Workers is the fan-out width. Values < 1 mean 1 (sequential).
	Workers int
	// Buffer is how many completed-but-undelivered results the stage may
	// hold beyond its in-flight work, bounding its memory use. Values < 1
	// mean Workers.
	Buffer int
	// Policy is what to do when Fn fails after retries: Abort (default)
	// or Skip.
	Policy Policy
	// Retries is how many extra attempts each failing item gets before
	// Policy applies.
	Retries int
	// Fn transforms one item. It must honor ctx cancellation for the
	// pipeline to shut down promptly.
	Fn func(ctx context.Context, item In) (Out, error)
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithMetrics directs per-stage latency observations into reg (stage name
// → monitor). By default each pipeline records into a private registry
// exposed via Metrics().
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Pipeline) {
		if reg != nil {
			p.metrics = reg
		}
	}
}

// WithClock sets the clock used for latency measurement. Nil means the
// real clock.
func WithClock(clk clock.Clock) Option {
	return func(p *Pipeline) {
		if clk != nil {
			p.clk = clk
		}
	}
}

// WithInstruments registers per-stage in-flight and queue-depth gauges
// in set, labelled stage="<name>", for every Via stage: in-flight is how
// many items the stage has dispatched to workers but not yet collected,
// queue depth how many cells of its ordering ring are taken (by an item
// waiting, running or done but not yet handed on). Stage names are reused across pipeline runs sharing
// one set (registration is idempotent), so long-lived servers see the
// live occupancy of the current run. A nil set is ignored.
func WithInstruments(set *metrics.Set) Option {
	return func(p *Pipeline) { p.set = set }
}

// Pipeline is one run of the dataflow engine: build it with New, wire
// stages with Source / Via / Drain / Collect, then Wait for completion.
// A Pipeline is single-use.
type Pipeline struct {
	ctx     context.Context
	cancel  context.CancelCauseFunc
	clk     clock.Clock
	metrics *metrics.Registry
	set     *metrics.Set // optional instrument set for per-stage gauges
	wg      sync.WaitGroup

	mu      sync.Mutex
	stages  []*counters
	skipped []error // first few skip-policy errors, for diagnosis
}

// maxSkippedErrors bounds how many skip-policy errors a pipeline retains.
const maxSkippedErrors = 32

// New returns an empty pipeline whose stages run under a context derived
// from ctx: cancelling ctx cancels the pipeline.
func New(ctx context.Context, opts ...Option) *Pipeline {
	runCtx, cancel := context.WithCancelCause(ctx)
	p := &Pipeline{
		ctx:     runCtx,
		cancel:  cancel,
		clk:     clock.Real(),
		metrics: metrics.NewRegistry(),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Wait blocks until every stage has drained and returns the pipeline's
// outcome: nil on success, the aborting stage's error after an Abort, or
// the context cause if the surrounding context was cancelled.
func (p *Pipeline) Wait() error {
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

// Metrics returns the registry holding each stage's latency monitor.
func (p *Pipeline) Metrics() *metrics.Registry { return p.metrics }

// SkippedErrors returns the errors behind skipped items (bounded; the
// per-stage counts in Stats are exact).
func (p *Pipeline) SkippedErrors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.skipped))
	copy(out, p.skipped)
	return out
}

func (p *Pipeline) noteSkip(stage string, err error) {
	p.mu.Lock()
	if len(p.skipped) < maxSkippedErrors {
		p.skipped = append(p.skipped, fmt.Errorf("pipeline: stage %s: %w", stage, err))
	}
	p.mu.Unlock()
}

func (p *Pipeline) abort(stage string, err error) {
	p.cancel(fmt.Errorf("pipeline: stage %s: %w", stage, err))
}

// StageStats is a point-in-time summary of one stage.
type StageStats struct {
	Name    string
	In      int64 // items received
	Out     int64 // items emitted downstream
	Skipped int64 // items dropped by the Skip policy
	Retries int64 // extra attempts made by the retry policy
	// Latency summarizes per-item processing time (successful attempts);
	// Failures counts failed attempts. Both come from the stage monitor.
	Mean     time.Duration
	P95      time.Duration
	Failures uint64
}

// Stats summarizes every stage in wiring order. A source stage records no
// latency and has no monitor — Stats creates none to read zeros from, in
// a caller's registry least of all — so its Mean, P95 and Failures are 0.
func (p *Pipeline) Stats() []StageStats {
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
			Retries:  c.retries.Load(),
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
	name                      string
	mon                       *metrics.Monitor
	in, out, skipped, retries atomic.Int64
}

func (p *Pipeline) newCounters(name string, mon *metrics.Monitor) *counters {
	c := &counters{name: name, mon: mon}
	p.mu.Lock()
	p.stages = append(p.stages, c)
	p.mu.Unlock()
	return c
}

// Flow is a typed stream of items moving between stages of one Pipeline.
type Flow[T any] struct {
	p  *Pipeline
	ch <-chan T
}

// Pipeline returns the pipeline this flow belongs to.
func (f *Flow[T]) Pipeline() *Pipeline { return f.p }

// Source emits items, in order, as a new flow.
func Source[T any](p *Pipeline, name string, items []T) *Flow[T] {
	return SourceFunc(p, name, func(_ context.Context, emit func(T) error) error {
		for _, item := range items {
			if err := emit(item); err != nil {
				return err
			}
		}
		return nil
	})
}

// SourceFunc runs gen as the pipeline's source: each emit call feeds one
// item downstream, blocking for backpressure and returning an error once
// the pipeline is cancelled (gen should stop then). A non-nil error from
// gen — other than the cancellation error emit handed it — aborts the
// pipeline.
func SourceFunc[T any](p *Pipeline, name string, gen func(ctx context.Context, emit func(T) error) error) *Flow[T] {
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
			p.abort(name, err)
		}
		sp.End()
	}()
	return &Flow[T]{p: p, ch: out}
}

// Via connects f through stage s and returns the stage's output flow. It
// is a package function rather than a method because Go methods cannot
// introduce new type parameters.
//
// A stage is a ring of Workers+Buffer cells and three goroutine roles.
// The dispatcher takes a cell for each item it pulls from upstream — the
// cell after the one it took last, so cells are taken in stream order —
// writes the item into it and queues the cell's index for the workers.
// The stage's Workers long-lived goroutines run s.Fn on the queued cells,
// write each result into its cell and report the index on the completion
// channel. The collector, which receives completions in any order, hands
// results downstream in dispatch order and then frees their cells; the
// dispatcher blocks while every cell is taken, which is the stage's
// backpressure. Each cell has one owner at a time — dispatcher, then a
// worker, then the collector — and every hand-over is a channel
// operation, so the ring needs no lock and an item costs no allocation.
func Via[In, Out any](f *Flow[In], s Stage[In, Out]) *Flow[Out] {
	p := f.p
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	buffer := s.Buffer
	if buffer < 1 {
		buffer = workers
	}
	mon := p.metrics.Monitor(s.Name)
	c := p.newCounters(s.Name, mon)
	// Nil when the pipeline has no instrument set: every update below is
	// then an inert nil-receiver call.
	inflightG := p.set.Gauge("richsdk_pipeline_stage_inflight",
		"Items dispatched to a stage's workers and not yet collected.",
		metrics.Label{Name: "stage", Value: s.Name})
	queueG := p.set.Gauge("richsdk_pipeline_stage_queue_depth",
		"Taken cells of a stage's ordering ring: items waiting, running, or done and not yet handed on.",
		metrics.Label{Name: "stage", Value: s.Name})
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
			inflightG.Inc()
			queueG.Set(int64(len(taken)))
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
				cl.v, cl.err = runItem(p, s, c, mon, parent, cl.item)
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
				inflightG.Dec()
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
				case s.Policy == Skip:
					c.skipped.Add(1)
					p.noteSkip(s.Name, err)
				default:
					p.abort(s.Name, err)
				}
				<-taken
				queueG.Set(int64(len(taken)))
			}
		}
	}()
	return &Flow[Out]{p: p, ch: out}
}

// cell is one slot of a Via stage's ordering ring: the item a worker
// processes, then the result the collector delivers.
type cell[In, Out any] struct {
	item In
	v    Out
	err  error
}

// runItem applies s.Fn to one item with the stage's retry budget,
// recording every attempt's latency and outcome in the stage monitor. On a
// traced run each item gets a span (named for the stage, covering all
// attempts) whose context flows into Fn, so SDK invocations made while
// processing the item join the run's trace tree.
func runItem[In, Out any](p *Pipeline, s Stage[In, Out], c *counters, mon *metrics.Monitor, parent trace.Span, item In) (Out, error) {
	var zero Out
	sp := parent.Child(s.Name)
	ctx := p.ctx
	if sp.Recording() {
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	defer sp.End()
	for attempt := 0; ; attempt++ {
		start := p.clk.Now()
		v, err := s.Fn(ctx, item)
		mon.Record(metrics.Observation{Latency: p.clk.Since(start), Err: err})
		if attempt > 0 {
			sp.SetInt("retries", int64(attempt))
		}
		if err == nil {
			return v, nil
		}
		if attempt >= s.Retries || p.ctx.Err() != nil {
			sp.SetError(err)
			return zero, err
		}
		c.retries.Add(1)
	}
}

// Drain terminates a flow: fn runs once per item, sequentially, in stream
// order. A non-nil error from fn aborts the pipeline.
func Drain[T any](f *Flow[T], name string, fn func(ctx context.Context, item T) error) {
	p := f.p
	mon := p.metrics.Monitor(name)
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
			start := p.clk.Now()
			err := fn(ctx, item)
			mon.Record(metrics.Observation{Latency: p.clk.Since(start), Err: err})
			if err != nil {
				sp.SetError(err)
				sp.End()
				if p.ctx.Err() == nil {
					p.abort(name, err)
				}
				continue // keep draining so upstream unblocks
			}
			sp.End()
			c.out.Add(1)
		}
	}()
}

// Collected holds a terminal stage's gathered output. Items is valid only
// after the pipeline's Wait returns.
type Collected[T any] struct {
	items []T
}

// Items returns the collected items in stream order. Call after Wait.
func (c *Collected[T]) Items() []T { return c.items }

// Collect terminates a flow by gathering every item, in stream order, for
// retrieval after Wait.
func Collect[T any](f *Flow[T], name string) *Collected[T] {
	col := &Collected[T]{}
	Drain(f, name, func(_ context.Context, item T) error {
		col.items = append(col.items, item)
		return nil
	})
	return col
}
