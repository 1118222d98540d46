// Package pipeline runs the paper's Fig. 3/5 analytics loop — query →
// search → fetch → NLU-analyze → aggregate → persist → knowledge-base sink
// — as AnalysisConfig.Run and RunDocs (analysis.go), on the small private
// runner in this file.
//
// A run's documents are known before the first of them is fetched — the
// search hits, or the documents RunDocs was given — so the runner works on
// their indices. Run's fetch workers claim the next index from a counter
// and hand each fetched index to the analyze workers over one channel
// that holds them all; RunDocs starts only the analyze workers. Each
// stage has cfg.Workers workers, and the two stages overlap. A document's
// result lands in its own slot, and the run reads the slots in index
// order once every worker has returned, so parallelism never reorders the
// documents and a run leaves no goroutine behind.
//
// Error policy: abort (the default) or skip, for fetch and analyze alike.
// A document is tried once; retries belong to the SDK chain the stages
// invoke services through. Under abort, the run is cancelled when every
// document before the first failing one has settled, so the error is that
// of the lowest-index failing document whatever the timing; under skip,
// AnalysisResult.Skipped lists failures in document order.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nlu"
	"repro/internal/search"
	"repro/internal/trace"
)

// policy selects how a run responds to a document whose fetch or analysis
// failed.
type policy int

const (
	// abort cancels the run; it returns the lowest-index failing
	// document's error. The zero value: losing data must be opted into.
	abort policy = iota
	// skip drops the failed document, counts it in its stage's stats,
	// and keeps the run going — the right policy when one bad document
	// must not sink a thousand good ones.
	skip
)

// maxSkippedErrors bounds how many skip-policy errors a run retains.
const maxSkippedErrors = 32

// StageStats is a summary of one stage of a run.
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

// docSlot is one document's place in a run. The workers that handle the
// document write it; the run reads it once they have all returned.
type docSlot struct {
	// res carries the document from the start — given (RunDocs) or
	// fetched (Run) — and its analyses once they are in.
	res DocResult
	// stage names where err happened; both are set, and settled, under
	// runner.mu.
	stage   string
	err     error
	settled bool
}

// runner is one run's fetch and analyze workers over a known list of
// documents.
type runner struct {
	cfg    *AnalysisConfig
	ctx    context.Context
	cancel context.CancelCauseFunc
	// parent is the run's root span; every stage span is its child.
	parent trace.Span
	slots  []docSlot
	// fetches is set by Run: its fetch workers fetch hits[i] under base
	// into slot i. RunDocs leaves it unset and fills the slots itself.
	fetches bool
	hits    []search.Result
	base    string

	fetchMon, analyzeMon *metrics.Monitor
	wg                   sync.WaitGroup
	next                 atomic.Int64 // the next index a fetch worker claims
	fetchers             atomic.Int32 // fetch workers still running
	fetched              chan int     // indices ready to analyze

	mu     sync.Mutex
	prefix int // slots[:prefix] have settled
}

// newRunner returns a runner over n documents whose workers run under a
// context derived from ctx, below the span parent.
func (cfg *AnalysisConfig) newRunner(ctx context.Context, parent trace.Span, n int) *runner {
	runCtx, cancel := context.WithCancelCause(ctx)
	return &runner{
		cfg: cfg, ctx: runCtx, cancel: cancel, parent: parent,
		slots:   make([]docSlot, n),
		fetched: make(chan int, n),
	}
}

// run starts the workers — fetch and analyze when the runner fetches,
// analyze alone otherwise — and returns once every one of them has
// returned: nil, the lowest-index failure under abort, or the context's
// cause after a cancel from outside.
func (r *runner) run() error {
	w := min(r.cfg.Workers, len(r.slots))
	r.analyzeMon = metrics.NewMonitor("analyze")
	if r.fetches {
		r.fetchMon = metrics.NewMonitor("fetch")
		r.fetchers.Store(int32(w))
		r.wg.Add(w)
		for range w {
			go r.fetchWorker()
		}
	} else {
		for i := range r.slots {
			r.fetched <- i
		}
		close(r.fetched)
	}
	r.wg.Add(w)
	for range w {
		go r.analyzeWorker()
	}
	r.wg.Wait()
	cancelled := r.ctx.Err() != nil
	cause := context.Cause(r.ctx)
	r.cancel(nil)
	if !cancelled {
		return nil
	}
	return cause
}

// fetchWorker fetches documents in index order until none is left or the
// run is cancelled; the last fetch worker to return closes fetched.
func (r *runner) fetchWorker() {
	defer r.wg.Done()
	for {
		i := int(r.next.Add(1) - 1)
		if i >= len(r.slots) || r.ctx.Err() != nil {
			break
		}
		ctx, sp := r.item("fetch")
		start := time.Now()
		doc, err := r.cfg.fetchHit(ctx, r.base, r.hits[i])
		record(r.fetchMon, sp, start, err)
		if err != nil {
			r.settle(i, "fetch", err)
			continue
		}
		r.slots[i].res = DocResult{Index: i, Doc: doc}
		r.fetched <- i
	}
	if r.fetchers.Add(-1) == 0 {
		close(r.fetched)
	}
}

// analyzeWorker analyzes fetched documents until fetched is closed. An
// index taken after the run was cancelled is dropped, not analyzed.
func (r *runner) analyzeWorker() {
	defer r.wg.Done()
	for i := range r.fetched {
		if r.ctx.Err() != nil {
			continue
		}
		s := &r.slots[i]
		ctx, sp := r.item("analyze")
		start := time.Now()
		analyses, cached, err := r.cfg.analyzeDoc(ctx, &s.res.Doc)
		record(r.analyzeMon, sp, start, err)
		s.res.Analyses, s.res.Cached = analyses, cached
		r.settle(i, "analyze", err)
	}
}

// item opens one document's span in stage name and returns the context
// the stage's work runs under.
func (r *runner) item(name string) (context.Context, trace.Span) {
	sp := r.parent.Child(name)
	if sp.Recording() {
		return trace.ContextWithSpan(r.ctx, sp), sp
	}
	return r.ctx, sp
}

// record closes an item's span and folds its latency and outcome into
// the stage monitor.
func record(mon *metrics.Monitor, sp trace.Span, start time.Time, err error) {
	mon.Record(metrics.Observation{Latency: time.Since(start), Err: err})
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
}

// settle marks document i done — analyzed, or failed in stage with err —
// and advances the settled prefix. Under abort, the prefix reaching a
// failure cancels the run with it.
func (r *runner) settle(i int, stage string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.slots[i]
	s.stage, s.err, s.settled = stage, err, true
	for ; r.prefix < len(r.slots) && r.slots[r.prefix].settled; r.prefix++ {
		if s := &r.slots[r.prefix]; s.err != nil && r.cfg.policy() == abort && r.ctx.Err() == nil {
			r.cancel(stageError(s.stage, s.err))
		}
	}
}

func stageError(stage string, err error) error {
	return fmt.Errorf("pipeline: stage %s: %w", stage, err)
}

// collect reads a finished run's slots in index order into res: the
// surviving documents, each under one "aggregate" span and observation,
// the skip errors, and the stages' stats, the source stage first.
func (r *runner) collect(res *AnalysisResult, source string) {
	n := int64(len(r.slots))
	var fetchFailed, analyzeFailed int64
	for i := range r.slots {
		if s := &r.slots[i]; s.err != nil {
			if len(res.Skipped) < maxSkippedErrors {
				res.Skipped = append(res.Skipped, stageError(s.stage, s.err))
			}
			if s.stage == "fetch" {
				fetchFailed++
			} else {
				analyzeFailed++
			}
		}
	}
	fetched := n - fetchFailed
	kept := fetched - analyzeFailed
	aggregateMon := metrics.NewMonitor("aggregate")
	if kept > 0 {
		res.Docs = make([]DocResult, 0, kept)
		res.Analyses = make([]nlu.Analysis, 0, kept)
		res.PerDoc = make([][]nlu.Analysis, 0, kept)
	}
	for i := range r.slots {
		s := &r.slots[i]
		if s.err != nil {
			continue
		}
		sp := r.parent.Child("aggregate")
		start := time.Now()
		res.Docs = append(res.Docs, s.res)
		res.Analyses = append(res.Analyses, s.res.primary())
		res.PerDoc = append(res.PerDoc, s.res.Analyses)
		res.CachedAnalyses += s.res.Cached
		record(aggregateMon, sp, start, nil)
	}

	res.Stages = make([]StageStats, 0, 4)
	res.Stages = append(res.Stages, StageStats{Name: source, Out: n})
	if r.fetches {
		res.Stages = append(res.Stages, stageStats("fetch", r.fetchMon, n, fetched, fetchFailed))
	}
	res.Stages = append(res.Stages,
		stageStats("analyze", r.analyzeMon, fetched, kept, analyzeFailed),
		stageStats("aggregate", aggregateMon, kept, kept, 0))
}

// stageStats is one recorded stage's counts and its monitor's summary.
func stageStats(name string, mon *metrics.Monitor, in, out, skipped int64) StageStats {
	snap := mon.Snapshot()
	return StageStats{
		Name: name, In: in, Out: out, Skipped: skipped,
		Mean: snap.MeanLatency, P95: snap.P95Latency, Failures: snap.Failures,
	}
}
