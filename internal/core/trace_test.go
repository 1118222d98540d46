package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

func newTracedClient(t *testing.T, cfg Config) (*Client, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	t.Cleanup(tr.Close)
	cfg.Tracer = tr
	return newClient(t, cfg), tr
}

// spanTree indexes a trace's spans by name and verifies the parent link of
// each expected (child, parent) pair.
func spanTree(t *testing.T, tr *trace.Trace) map[string]trace.SpanData {
	t.Helper()
	byName := make(map[string]trace.SpanData, len(tr.Spans))
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	return byName
}

func assertLink(t *testing.T, byName map[string]trace.SpanData, child, parent string) {
	t.Helper()
	c, ok := byName[child]
	if !ok {
		t.Fatalf("trace has no span %q (have %v)", child, names(byName))
	}
	p, ok := byName[parent]
	if !ok {
		t.Fatalf("trace has no span %q (have %v)", parent, names(byName))
	}
	if c.ParentID != p.ID {
		t.Errorf("span %q parent = %d, want %q (%d)", child, c.ParentID, parent, p.ID)
	}
}

func names(byName map[string]trace.SpanData) []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	return out
}

func attrOf(s trace.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestTraceStageFullChain(t *testing.T) {
	c, tr := newTracedClient(t, Config{
		Breaker:  BreakerConfig{Threshold: 3},
		Deadline: DeadlineConfig{Factor: 2, Floor: time.Second},
	})
	svc, _ := countingService("s1", "search", nil)
	c.mustRegister(svc, WithCacheable())

	// First call misses the cache and runs the whole chain.
	if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "q"}); err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("stored %d traces after one invoke, want 1", len(traces))
	}
	full, ok := tr.Trace(traces[0].ID)
	if !ok {
		t.Fatal("trace not retrievable by ID")
	}
	if full.Name != "invoke s1" {
		t.Errorf("root span name = %q, want %q", full.Name, "invoke s1")
	}
	byName := spanTree(t, full)
	// Every stage that ran must appear, nested in composition order.
	assertLink(t, byName, "cache", "invoke s1")
	assertLink(t, byName, "breaker", "cache")
	assertLink(t, byName, "deadline", "breaker")
	assertLink(t, byName, "monitor", "deadline")
	assertLink(t, byName, "predict", "monitor")
	assertLink(t, byName, "retry", "predict")
	assertLink(t, byName, "attempt", "retry")
	if got := attrOf(byName["cache"], "cache"); got != "miss" {
		t.Errorf("cache attr = %q, want miss", got)
	}
	if got := attrOf(byName["breaker"], "state"); got != "closed" {
		t.Errorf("breaker state attr = %q, want closed", got)
	}
	if got := attrOf(byName["deadline"], "deadline"); got != "unbounded" {
		t.Errorf("first-call deadline attr = %q, want unbounded (no prediction yet)", got)
	}
	if got := attrOf(byName["retry"], "attempts"); got != "1" {
		t.Errorf("retry attempts attr = %q, want 1", got)
	}
	if got := attrOf(byName["invoke s1"], "service"); got != "s1" {
		t.Errorf("root service attr = %q, want s1", got)
	}

	// Second call is a cache hit: its own trace, just root + cache.
	if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "q"}); err != nil {
		t.Fatal(err)
	}
	traces = tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("stored %d traces after two invokes, want 2", len(traces))
	}
	hit, _ := tr.Trace(traces[0].ID) // newest first
	if len(hit.Spans) != 2 {
		t.Fatalf("cache-hit trace has %d spans, want 2 (root+cache): %+v", len(hit.Spans), hit.Spans)
	}
	if got := attrOf(spanTree(t, hit)["cache"], "cache"); got != "hit" {
		t.Errorf("cache-hit attr = %q, want hit", got)
	}
}

func TestTraceJoinsContextParent(t *testing.T) {
	c, tr := newTracedClient(t, Config{})
	svc, _ := countingService("s1", "search", nil)
	c.mustRegister(svc, WithCacheable())

	ctx, root := tr.Start(context.Background(), "request")
	if _, err := c.Invoke(ctx, "s1", service.Request{Text: "q"}); err != nil {
		t.Fatal(err)
	}
	root.End()

	got, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	byName := spanTree(t, got)
	assertLink(t, byName, "invoke s1", "request")
	if len(tr.Traces()) != 1 {
		t.Errorf("invocation under a request span must not open a second trace: %d", len(tr.Traces()))
	}
}

func TestTraceErrorRecorded(t *testing.T) {
	c, tr := newTracedClient(t, Config{})
	c.mustRegister(service.Func{
		Meta: service.Info{Name: "bad", Category: "x"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{}, service.ErrBadRequest
		},
	})
	if _, err := c.Invoke(context.Background(), "bad", service.Request{}); err == nil {
		t.Fatal("expected error")
	}
	got, _ := tr.Trace(tr.Traces()[0].ID)
	byName := spanTree(t, got)
	if byName["invoke bad"].Error == "" {
		t.Error("root span did not record the invocation error")
	}
	if byName["attempt"].Error == "" {
		t.Error("attempt span did not record the transport error")
	}
}

func TestNoTracerIsInert(t *testing.T) {
	c := newClient(t, Config{})
	svc, _ := countingService("s1", "search", nil)
	c.mustRegister(svc, WithCacheable())
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "s1", service.Request{Text: "q"}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Tracer() != nil {
		t.Error("Tracer() should be nil when unconfigured")
	}
	if got := c.Tracer().Traces(); got != nil {
		t.Errorf("nil tracer returned traces: %v", got)
	}
}
