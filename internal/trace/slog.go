package trace

import (
	"context"
	"log/slog"
)

// LogHandler is an slog.Handler middleware that stamps every record
// emitted under a traced context with the current trace and span IDs, so
// structured event logs join up with the trace store: grep a log line's
// trace_id, fetch /v1/traces/{id}, and see the invocation's whole journey.
type LogHandler struct {
	inner slog.Handler
}

var _ slog.Handler = LogHandler{}

// NewLogHandler wraps inner with trace/span correlation.
func NewLogHandler(inner slog.Handler) LogHandler {
	return LogHandler{inner: inner}
}

// Enabled implements slog.Handler.
func (h LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, adding trace_id and span_id when ctx
// carries a recording span.
func (h LogHandler) Handle(ctx context.Context, r slog.Record) error {
	if sp := spanFromContext(ctx); sp.Recording() {
		r.AddAttrs(
			slog.String("trace_id", sp.TraceID()),
			slog.Int("span_id", sp.spanID()),
		)
	}
	return h.inner.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return LogHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h LogHandler) WithGroup(name string) slog.Handler {
	return LogHandler{inner: h.inner.WithGroup(name)}
}
