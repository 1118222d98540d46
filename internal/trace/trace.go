// Package trace implements the rich SDK's invocation-tracing substrate:
// context-propagated spans with trace/span/parent identity, per-span
// annotations and errors, configurable head sampling, and a bounded
// ring store holding the most recent finished traces for inspection
// (the HTTP façade's /v1/traces endpoints).
//
// The paper's SDK is built around "monitoring and data collection";
// aggregate monitors (internal/metrics) answer "how is this service
// doing?", traces answer "what happened to this one invocation?" — which
// middleware stages ran, in what order, with what outcome.
//
// Design for the hot path. A traced cache hit must not noticeably slow
// the SDK's fastest path, so the per-span cost is kept to a handful of
// plain stores:
//
//   - Span is a value (record pointer + slot index), never heap-allocated;
//     the zero Span is a valid no-op, so untraced paths pay one nil check.
//   - Each trace's spans live in one preallocated slot array owned by a
//     pooled record; starting a span is an atomic slot claim plus field
//     stores, with no per-span allocation once the pool is warm.
//   - Timestamps come from a coarse clock — an atomic nanosecond value a
//     background ticker refreshes (default every millisecond) — instead of
//     a time.Now call per event. Sub-millisecond spans therefore read as
//     zero duration; withPreciseTimestamps restores time.Now for offline
//     analysis where fidelity beats throughput.
//   - The ring store takes one short mutex hold per finished trace
//     (publish) and per reader snapshot; live span recording never locks.
//
// A span must End before its root does: ending the root publishes the
// trace to the ring, after which its record must no longer be written.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for New.
const (
	// DefaultCapacity is how many finished traces the ring retains.
	DefaultCapacity = 64
	// defaultMaxSpans bounds the spans recorded per trace; spans beyond
	// it are counted as dropped.
	defaultMaxSpans = 1024
	// defaultClockInterval is the coarse clock's refresh period.
	defaultClockInterval = time.Millisecond
)

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// spanSlot is one span's storage inside its trace's record. Slots are
// written by the single goroutine driving that span (claiming a slot is
// atomic; everything after is plain stores) and become readable when the
// trace publishes.
type spanSlot struct {
	name    string
	parent  int32 // slot index of the parent span, -1 for the root
	startNS int64 // unix nanoseconds
	durNS   int64
	err     string
	attrs   []Attr // reused across record recycling; reset to len 0
}

// record holds one trace in flight or in the ring. Records are pooled:
// publish hands the evicted record back for the next trace to reuse.
type record struct {
	t      *Tracer
	id     uint64
	nspans atomic.Int32
	drops  atomic.Int32
	spans  []spanSlot
}

// Span is a live handle to one span of one trace. It is a small value —
// copy it freely. The zero Span records nothing and all its methods are
// no-ops, so call sites need no tracing-enabled branches. A Span's
// mutating methods (SetAttr, SetError, End) must be driven by one
// goroutine; concurrent *children* of one span are fine.
type Span struct {
	rec *record
	idx int32
}

// Recording reports whether the span is live and recording.
func (s Span) Recording() bool { return s.rec != nil }

// TraceID returns the span's trace ID as a 16-digit hex string, or "" for
// a non-recording span.
func (s Span) TraceID() string {
	if s.rec == nil {
		return ""
	}
	return formatID(s.rec.id)
}

// spanID returns the span's ID within its trace (1-based; 0 for a
// non-recording span).
func (s Span) spanID() int {
	if s.rec == nil {
		return 0
	}
	return int(s.idx) + 1
}

// Child starts a child span. The returned span may be a no-op when the
// parent is not recording or the trace's span budget is exhausted.
func (s Span) Child(name string) Span {
	if s.rec == nil {
		return Span{}
	}
	rec := s.rec
	idx := rec.nspans.Add(1) - 1
	if int(idx) >= len(rec.spans) {
		rec.drops.Add(1)
		return Span{}
	}
	sl := &rec.spans[idx]
	sl.name = name
	sl.parent = s.idx
	sl.startNS = rec.t.now()
	sl.durNS = 0
	sl.err = ""
	sl.attrs = sl.attrs[:0]
	return Span{rec: rec, idx: idx}
}

// SetAttr annotates the span. Attributes beyond the per-span budget are
// dropped silently; keep them few and load-bearing.
func (s Span) SetAttr(key, value string) {
	if s.rec == nil {
		return
	}
	sl := &s.rec.spans[s.idx]
	if len(sl.attrs) < maxSpanAttrs {
		sl.attrs = append(sl.attrs, Attr{Key: key, Value: value})
	}
}

// maxSpanAttrs bounds annotations per span.
const maxSpanAttrs = 8

// SetInt annotates the span with an integer value.
func (s Span) SetInt(key string, v int64) {
	if s.rec == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetDuration annotates the span with a duration in milliseconds.
func (s Span) SetDuration(key string, d time.Duration) {
	if s.rec == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
}

// SetError records err on the span. A nil err records nothing.
func (s Span) SetError(err error) {
	if s.rec == nil || err == nil {
		return
	}
	s.rec.spans[s.idx].err = err.Error()
}

// End stamps the span's duration. Ending the root span publishes the
// whole trace to the tracer's ring store; every other span of the trace
// must End before the root does.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	sl := &s.rec.spans[s.idx]
	sl.durNS = s.rec.t.now() - sl.startNS
	if s.idx == 0 {
		s.rec.t.publish(s.rec)
	}
}

// spanKey carries the current Span in a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp; a non-recording sp returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// spanFromContext returns the span carried by ctx, or a no-op Span.
func spanFromContext(ctx context.Context) Span {
	sp, _ := ctx.Value(spanKey{}).(Span)
	return sp
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSampleRate sets head sampling: the probability, in [0, 1], that a
// new root span starts a recorded trace. Rates at or above 1 record
// everything; at or below 0 nothing.
func WithSampleRate(rate float64) Option {
	return func(t *Tracer) { t.rate = rate }
}

// WithCapacity bounds how many finished traces the ring store retains.
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.capacity = n
		}
	}
}

// WithMaxSpans bounds the spans recorded per trace; the rest are counted
// as dropped on the trace.
func WithMaxSpans(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.maxSpans = n
		}
	}
}

// withPreciseTimestamps makes every span start/end call time.Now instead
// of reading the coarse clock — exact sub-millisecond durations at a
// per-event cost the SDK's fast paths notice.
func withPreciseTimestamps() Option {
	return func(t *Tracer) { t.precise = true }
}

// withClockInterval sets the coarse clock's refresh period (and thereby
// span timestamp resolution).
func withClockInterval(d time.Duration) Option {
	return func(t *Tracer) {
		if d > 0 {
			t.tick = d
		}
	}
}

// Stats is a point-in-time summary of a tracer's activity.
type Stats struct {
	// Sampled counts traces recorded and published to the ring.
	Sampled uint64 `json:"sampled"`
	// Unsampled counts root spans the head sampler declined.
	Unsampled uint64 `json:"unsampled"`
	// DroppedSpans counts spans discarded because their trace exceeded
	// the per-trace span budget.
	DroppedSpans uint64 `json:"droppedSpans"`
	// Stored is how many finished traces the ring currently holds.
	Stored int `json:"stored"`
}

// Tracer creates spans and stores finished traces. It is safe for
// concurrent use. A nil *Tracer is valid and records nothing.
type Tracer struct {
	rate     float64
	capacity int
	maxSpans int
	precise  bool
	tick     time.Duration
	randf    func() float64 // sampling source; swappable in tests

	coarse    atomic.Int64
	clockOnce sync.Once
	stop      chan struct{}
	closeOnce sync.Once

	unsampled    atomic.Uint64
	droppedSpans atomic.Uint64

	pool sync.Pool

	mu       sync.Mutex
	ring     []*record
	pos      int
	finished uint64
}

// New returns a Tracer sampling every trace into a DefaultCapacity-deep
// ring, defaultMaxSpans spans per trace, with millisecond-resolution
// timestamps. Call Close when done to stop the tracer's clock.
func New(opts ...Option) *Tracer {
	t := &Tracer{
		rate:     1,
		capacity: DefaultCapacity,
		maxSpans: defaultMaxSpans,
		tick:     defaultClockInterval,
		randf:    rand.Float64,
		stop:     make(chan struct{}),
	}
	for _, o := range opts {
		o(t)
	}
	t.ring = make([]*record, t.capacity)
	t.pool.New = func() any {
		return &record{t: t, spans: make([]spanSlot, t.maxSpans)}
	}
	return t
}

// Close stops the tracer's background clock. Stored traces remain
// readable; new spans after Close keep the last clock value.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.closeOnce.Do(func() { close(t.stop) })
}

// Enabled reports whether the tracer can record anything: non-nil with a
// positive sample rate.
func (t *Tracer) Enabled() bool { return t != nil && t.rate > 0 }

// now returns the current span timestamp in unix nanoseconds.
func (t *Tracer) now() int64 {
	if t.precise {
		return time.Now().UnixNano()
	}
	return t.coarse.Load()
}

// startClock seeds the coarse clock and, unless timestamps are precise,
// starts the ticker goroutine refreshing it.
func (t *Tracer) startClock() {
	t.coarse.Store(time.Now().UnixNano())
	if t.precise {
		return
	}
	go func() {
		tk := time.NewTicker(t.tick)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case now := <-tk.C:
				t.coarse.Store(now.UnixNano())
			}
		}
	}()
}

// StartSpan starts a span without deriving a new context. If ctx already
// carries a recording span the new span joins that trace as its child;
// otherwise it is a root, subject to head sampling. Use Start when
// downstream code must see the span in the context.
func (t *Tracer) StartSpan(ctx context.Context, name string) Span {
	if t == nil {
		return Span{}
	}
	if parent := spanFromContext(ctx); parent.rec != nil {
		return parent.Child(name)
	}
	if t.rate <= 0 || (t.rate < 1 && t.randf() >= t.rate) {
		t.unsampled.Add(1)
		return Span{}
	}
	t.clockOnce.Do(t.startClock)
	rec := t.pool.Get().(*record)
	rec.id = rand.Uint64() | 1
	rec.nspans.Store(1)
	rec.drops.Store(0)
	sl := &rec.spans[0]
	sl.name = name
	sl.parent = -1
	sl.startNS = t.now()
	sl.durNS = 0
	sl.err = ""
	sl.attrs = sl.attrs[:0]
	return Span{rec: rec}
}

// Start starts a span as StartSpan does and returns a context carrying
// it, so nested work (and nested SDK invocations) joins the same trace.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, Span) {
	sp := t.StartSpan(ctx, name)
	return ContextWithSpan(ctx, sp), sp
}

// publish moves a finished trace into the ring, evicting (and recycling)
// the oldest.
func (t *Tracer) publish(rec *record) {
	if int(rec.drops.Load()) > 0 {
		t.droppedSpans.Add(uint64(rec.drops.Load()))
	}
	t.mu.Lock()
	old := t.ring[t.pos]
	t.ring[t.pos] = rec
	t.pos = (t.pos + 1) % len(t.ring)
	t.finished++
	t.mu.Unlock()
	if old != nil {
		t.pool.Put(old)
	}
}

// Stats returns the tracer's activity counters. Nil tracers report zero.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	s := Stats{
		Unsampled:    t.unsampled.Load(),
		DroppedSpans: t.droppedSpans.Load(),
	}
	t.mu.Lock()
	s.Sampled = t.finished
	for _, r := range t.ring {
		if r != nil {
			s.Stored++
		}
	}
	t.mu.Unlock()
	return s
}

// SpanData is one exported span of a finished trace.
type SpanData struct {
	// ID is the span's 1-based ID within its trace; ParentID is the
	// parent's ID, 0 for the root.
	ID       int           `json:"id"`
	ParentID int           `json:"parentId"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"-"`
	// DurationMS mirrors Duration for JSON consumers.
	DurationMS float64 `json:"durationMs"`
	Attrs      []Attr  `json:"attrs,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// Trace is one exported finished trace: its spans in start order (the
// root is always Spans[0]).
type Trace struct {
	ID           string        `json:"traceId"`
	Name         string        `json:"name"` // root span name
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"-"`
	DurationMS   float64       `json:"durationMs"`
	DroppedSpans int           `json:"droppedSpans,omitempty"`
	Spans        []SpanData    `json:"spans"`
}

// Summary describes one stored trace for listings.
type Summary struct {
	ID         string    `json:"traceId"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Spans      int       `json:"spans"`
	Error      string    `json:"error,omitempty"`
}

// Traces lists the stored traces, newest first.
func (t *Tracer) Traces() []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Summary, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		// Walk backward from the most recently published slot.
		rec := t.ring[((t.pos-1-i)%len(t.ring)+len(t.ring))%len(t.ring)]
		if rec == nil {
			continue
		}
		root := &rec.spans[0]
		out = append(out, Summary{
			ID:         formatID(rec.id),
			Name:       root.name,
			Start:      time.Unix(0, root.startNS),
			DurationMS: float64(root.durNS) / float64(time.Millisecond),
			Spans:      spanCount(rec),
			Error:      root.err,
		})
	}
	return out
}

// Trace returns the stored trace with the given ID.
func (t *Tracer) Trace(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.ring {
		if rec == nil || formatID(rec.id) != id {
			continue
		}
		n := spanCount(rec)
		root := &rec.spans[0]
		tr := &Trace{
			ID:           formatID(rec.id),
			Name:         root.name,
			Start:        time.Unix(0, root.startNS),
			Duration:     time.Duration(root.durNS),
			DurationMS:   float64(root.durNS) / float64(time.Millisecond),
			DroppedSpans: int(rec.drops.Load()),
			Spans:        make([]SpanData, 0, n),
		}
		for i := 0; i < n; i++ {
			sl := &rec.spans[i]
			sd := SpanData{
				ID:         i + 1,
				ParentID:   int(sl.parent) + 1,
				Name:       sl.name,
				Start:      time.Unix(0, sl.startNS),
				Duration:   time.Duration(sl.durNS),
				DurationMS: float64(sl.durNS) / float64(time.Millisecond),
				Error:      sl.err,
			}
			if len(sl.attrs) > 0 {
				sd.Attrs = append([]Attr(nil), sl.attrs...)
			}
			tr.Spans = append(tr.Spans, sd)
		}
		return tr, true
	}
	return nil, false
}

// spanCount returns how many slots of rec hold spans. Callers hold t.mu.
func spanCount(rec *record) int {
	n := int(rec.nspans.Load())
	if n > len(rec.spans) {
		n = len(rec.spans)
	}
	return n
}

// formatID renders a trace ID as fixed-width hex.
func formatID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
