package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func newTestTracer(t *testing.T, opts ...Option) *Tracer {
	t.Helper()
	tr := New(opts...)
	t.Cleanup(tr.Close)
	return tr
}

func TestSpanTree(t *testing.T) {
	tr := newTestTracer(t, withPreciseTimestamps())
	ctx, root := tr.Start(context.Background(), "invoke")
	if !root.Recording() {
		t.Fatal("root span not recording at sample rate 1")
	}
	root.SetAttr("service", "nlu-alpha")

	child := root.Child("cache")
	child.SetAttr("cache", "miss")
	grand := child.Child("retry")
	grand.SetInt("attempts", 2)
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()

	// A nested StartSpan under the same context joins the trace.
	nested := tr.StartSpan(ctx, "nested")
	if nested.TraceID() != root.TraceID() {
		t.Fatalf("nested span trace %q, want %q", nested.TraceID(), root.TraceID())
	}
	nested.End()
	root.End()

	got, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not stored", root.TraceID())
	}
	if got.Name != "invoke" {
		t.Errorf("root name = %q, want invoke", got.Name)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("stored %d spans, want 4", len(got.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	if byName["invoke"].ParentID != 0 {
		t.Errorf("root parent = %d, want 0", byName["invoke"].ParentID)
	}
	if byName["cache"].ParentID != byName["invoke"].ID {
		t.Errorf("cache parent = %d, want root %d", byName["cache"].ParentID, byName["invoke"].ID)
	}
	if byName["retry"].ParentID != byName["cache"].ID {
		t.Errorf("retry parent = %d, want cache %d", byName["retry"].ParentID, byName["cache"].ID)
	}
	if byName["nested"].ParentID != byName["invoke"].ID {
		t.Errorf("nested parent = %d, want root %d", byName["nested"].ParentID, byName["invoke"].ID)
	}
	if byName["retry"].Error != "boom" {
		t.Errorf("retry error = %q, want boom", byName["retry"].Error)
	}
	wantAttr(t, byName["invoke"], "service", "nlu-alpha")
	wantAttr(t, byName["cache"], "cache", "miss")
	wantAttr(t, byName["retry"], "attempts", "2")
	if byName["invoke"].Duration <= 0 {
		t.Errorf("root duration = %v, want > 0 with precise timestamps", byName["invoke"].Duration)
	}
}

func wantAttr(t *testing.T, s SpanData, key, value string) {
	t.Helper()
	for _, a := range s.Attrs {
		if a.Key == key {
			if a.Value != value {
				t.Errorf("span %s attr %s = %q, want %q", s.Name, key, a.Value, value)
			}
			return
		}
	}
	t.Errorf("span %s has no attr %s", s.Name, key)
}

func TestHeadSampling(t *testing.T) {
	tr := newTestTracer(t, WithSampleRate(0.5))
	seq := []float64{0.4, 0.6, 0.1, 0.9} // alternate: sampled, not, sampled, not
	i := 0
	tr.randf = func() float64 { v := seq[i%len(seq)]; i++; return v }

	var sampled int
	for range seq {
		sp := tr.StartSpan(context.Background(), "op")
		if sp.Recording() {
			sampled++
		}
		sp.End()
	}
	if sampled != 2 {
		t.Errorf("sampled %d of 4, want 2", sampled)
	}
	st := tr.Stats()
	if st.Sampled != 2 || st.Unsampled != 2 {
		t.Errorf("stats = %+v, want 2 sampled / 2 unsampled", st)
	}

	// Children of an unsampled root are no-ops all the way down.
	tr.randf = func() float64 { return 1 }
	ctx, sp := tr.Start(context.Background(), "op")
	if sp.Recording() {
		t.Fatal("span sampled at effective rate 0")
	}
	if child := tr.StartSpan(ctx, "child"); child.Recording() {
		t.Error("child of unsampled root is recording")
	}
}

func TestSampleRateZeroAndNilTracer(t *testing.T) {
	tr := newTestTracer(t, WithSampleRate(0))
	if tr.Enabled() {
		t.Error("rate-0 tracer reports enabled")
	}
	_, sp := tr.Start(context.Background(), "op")
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("x"))
	sp.End()
	if got := tr.Traces(); len(got) != 0 {
		t.Errorf("rate-0 tracer stored %d traces", len(got))
	}

	var nilT *Tracer
	if nilT.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	ctx, sp := nilT.Start(context.Background(), "op")
	sp.Child("c").End()
	sp.End()
	nilT.Close()
	if nilT.Traces() != nil || nilT.Stats() != (Stats{}) {
		t.Error("nil tracer not inert")
	}
	if _, ok := nilT.Trace("deadbeef"); ok {
		t.Error("nil tracer returned a trace")
	}
	if spanFromContext(ctx).Recording() {
		t.Error("nil tracer leaked a span into the context")
	}
}

func TestRingEvictionAndRecycling(t *testing.T) {
	tr := newTestTracer(t, WithCapacity(4))
	var ids []string
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(context.Background(), fmt.Sprintf("op-%d", i))
		ids = append(ids, sp.TraceID())
		sp.Child("work").End()
		sp.End()
	}
	got := tr.Traces()
	if len(got) != 4 {
		t.Fatalf("stored %d traces, want capacity 4", len(got))
	}
	// Newest first: op-9 .. op-6.
	for i, s := range got {
		want := fmt.Sprintf("op-%d", 9-i)
		if s.Name != want {
			t.Errorf("traces[%d] = %s, want %s", i, s.Name, want)
		}
		if s.Spans != 2 {
			t.Errorf("traces[%d] has %d spans, want 2", i, s.Spans)
		}
	}
	// Evicted traces are gone; recycled records must not resurrect them.
	if _, ok := tr.Trace(ids[0]); ok {
		t.Error("evicted trace still retrievable")
	}
	if _, ok := tr.Trace(ids[9]); !ok {
		t.Error("latest trace not retrievable")
	}
	if st := tr.Stats(); st.Sampled != 10 || st.Stored != 4 {
		t.Errorf("stats = %+v, want 10 sampled / 4 stored", st)
	}
}

func TestMaxSpansDropsOverflow(t *testing.T) {
	tr := newTestTracer(t, WithMaxSpans(3))
	sp := tr.StartSpan(context.Background(), "root")
	kept := sp.Child("a")
	dropped := sp.Child("b") // budget (3) exhausted: root + a + b claims, b over
	if !kept.Recording() {
		t.Fatal("span within budget not recording")
	}
	over := sp.Child("c")
	if over.Recording() {
		t.Error("span beyond budget is recording")
	}
	kept.End()
	dropped.End()
	sp.End()

	got, ok := tr.Trace(sp.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if len(got.Spans) != 3 {
		t.Errorf("stored %d spans, want 3", len(got.Spans))
	}
	if got.DroppedSpans != 1 {
		t.Errorf("dropped = %d, want 1", got.DroppedSpans)
	}
	if st := tr.Stats(); st.DroppedSpans != 1 {
		t.Errorf("stats dropped = %d, want 1", st.DroppedSpans)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tr := newTestTracer(t)
	sp := tr.StartSpan(context.Background(), "root")
	for i := 0; i < maxSpanAttrs+5; i++ {
		sp.SetInt(fmt.Sprintf("k%d", i), int64(i))
	}
	sp.End()
	got, _ := tr.Trace(sp.TraceID())
	if len(got.Spans[0].Attrs) != maxSpanAttrs {
		t.Errorf("kept %d attrs, want %d", len(got.Spans[0].Attrs), maxSpanAttrs)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var sp Span
	if sp.Recording() || sp.TraceID() != "" || sp.spanID() != 0 {
		t.Error("zero span not inert")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("k", 1)
	sp.SetDuration("k", time.Second)
	sp.SetError(errors.New("x"))
	child := sp.Child("c")
	child.End()
	sp.End()
	if child.Recording() {
		t.Error("child of zero span records")
	}
	ctx := ContextWithSpan(context.Background(), sp)
	if spanFromContext(ctx).Recording() {
		t.Error("zero span stored in context")
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := newTestTracer(t, WithMaxSpans(256))
	sp := tr.StartSpan(context.Background(), "pipeline")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				c := sp.Child("item")
				c.SetInt("worker", int64(i))
				c.End()
			}
		}(i)
	}
	wg.Wait()
	sp.End()
	got, ok := tr.Trace(sp.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if len(got.Spans) != 1+8*20 {
		t.Errorf("stored %d spans, want %d", len(got.Spans), 1+8*20)
	}
	// Concurrent readers against concurrent new traces.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s := tr.StartSpan(context.Background(), "op")
			s.Child("w").End()
			s.End()
		}
	}()
	for i := 0; i < 50; i++ {
		for _, s := range tr.Traces() {
			if _, ok := tr.Trace(s.ID); !ok {
				// A trace may be evicted between list and get; that is
				// fine, we only exercise the locking.
				continue
			}
		}
		tr.Stats()
	}
	<-done
}

func TestCoarseClockAdvances(t *testing.T) {
	tr := newTestTracer(t, withClockInterval(time.Millisecond))
	sp := tr.StartSpan(context.Background(), "slow")
	time.Sleep(20 * time.Millisecond)
	sp.End()
	got, _ := tr.Trace(sp.TraceID())
	if d := got.Spans[0].Duration; d < 5*time.Millisecond {
		t.Errorf("coarse duration = %v, want >= 5ms after a 20ms sleep", d)
	}
	if got.Start.IsZero() {
		t.Error("trace start not stamped")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	tr := New()
	tr.StartSpan(context.Background(), "op").End()
	tr.Close()
	tr.Close()
	// Spans after Close still work off the last clock value.
	sp := tr.StartSpan(context.Background(), "after")
	sp.End()
	if _, ok := tr.Trace(sp.TraceID()); !ok {
		t.Error("span after Close not stored")
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := newTestTracer(t)
	sp := tr.StartSpan(context.Background(), "invoke")
	sp.SetAttr("service", "spell")
	sp.Child("cache").End()
	sp.End()
	got, _ := tr.Trace(sp.TraceID())
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceID string `json:"traceId"`
		Spans   []struct {
			ID       int     `json:"id"`
			ParentID int     `json:"parentId"`
			Name     string  `json:"name"`
			Dur      float64 `json:"durationMs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.TraceID != sp.TraceID() || len(decoded.Spans) != 2 {
		t.Errorf("JSON round trip lost data: %s", raw)
	}
}

func TestLogHandlerCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	tr := newTestTracer(t)

	ctx, sp := tr.Start(context.Background(), "invoke")
	logger.InfoContext(ctx, "traced event", "k", "v")
	sp.End()
	logger.InfoContext(context.Background(), "untraced event")

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	var traced map[string]any
	if err := json.Unmarshal(lines[0], &traced); err != nil {
		t.Fatal(err)
	}
	if traced["trace_id"] != sp.TraceID() {
		t.Errorf("trace_id = %v, want %s", traced["trace_id"], sp.TraceID())
	}
	if traced["span_id"] != float64(1) {
		t.Errorf("span_id = %v, want 1", traced["span_id"])
	}
	if traced["k"] != "v" {
		t.Errorf("user attr lost: %v", traced)
	}
	var untraced map[string]any
	if err := json.Unmarshal(lines[1], &untraced); err != nil {
		t.Fatal(err)
	}
	if _, ok := untraced["trace_id"]; ok {
		t.Error("untraced record carries trace_id")
	}

	// Level gating and attr/group wrapping still delegate.
	var buf2 bytes.Buffer
	h := NewLogHandler(slog.NewJSONHandler(&buf2, &slog.HandlerOptions{Level: slog.LevelWarn}))
	if h.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("handler enabled below inner level")
	}
	wrapped := slog.New(h.WithAttrs([]slog.Attr{slog.String("svc", "x")}).(slog.Handler))
	ctx2, sp2 := tr.Start(context.Background(), "op")
	wrapped.WarnContext(ctx2, "warn")
	sp2.End()
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf2.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["svc"] != "x" || rec["trace_id"] != sp2.TraceID() {
		t.Errorf("WithAttrs wrapper lost correlation or attrs: %v", rec)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := New()
	defer tr.Close()
	ctx := context.Background()
	b.Run("root+child", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.StartSpan(ctx, "invoke")
			c := sp.Child("cache")
			c.SetAttr("cache", "hit")
			c.End()
			sp.End()
		}
	})
	var nilT *Tracer
	b.Run("nil-tracer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := nilT.StartSpan(ctx, "invoke")
			c := sp.Child("cache")
			c.End()
			sp.End()
		}
	})
}

// TestSpanPathAllocs pins the per-invocation span path — StartSpan, Child,
// SetAttr, the child's End, the root's End — at zero allocations on a nil
// tracer, on an unsampled one and on a sampled one whose pool is warm.
// (A child on a fresh record allocates once: its slot's attribute slice.)
func TestSpanPathAllocs(t *testing.T) {
	ctx := context.Background()
	path := func(tr *Tracer) func() {
		return func() {
			sp := tr.StartSpan(ctx, "invoke")
			c := sp.Child("cache")
			c.SetAttr("cache", "hit")
			c.End()
			sp.End()
		}
	}
	var nilT *Tracer
	if got := testing.AllocsPerRun(100, path(nilT)); got != 0 {
		t.Errorf("nil tracer: %v allocs per span path, want 0", got)
	}
	if got := testing.AllocsPerRun(100, path(newTestTracer(t, WithSampleRate(0)))); got != 0 {
		t.Errorf("WithSampleRate(0): %v allocs per span path, want 0", got)
	}
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop records; the sampled leg needs a warm pool")
	}
	sampled := newTestTracer(t, WithCapacity(1))
	for range 4 { // fill the ring and hand both records' slots their attributes
		path(sampled)()
	}
	if got := testing.AllocsPerRun(100, path(sampled)); got != 0 {
		t.Errorf("sampled, warm pool: %v allocs per span path, want 0", got)
	}
}
