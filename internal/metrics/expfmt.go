package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// TextWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4): one optional HELP/TYPE header per family followed by
// sample lines `name{label="value",...} 1.5`. It keeps no state beyond the
// current family name, so families must be written contiguously.
type TextWriter struct {
	w   io.Writer
	err error
}

// NewTextWriter returns a TextWriter emitting to w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: w}
}

// Err returns the first write error encountered, if any. Subsequent calls
// after an error are no-ops, so callers can render a whole page and check
// once at the end.
func (t *TextWriter) Err() error { return t.err }

func (t *TextWriter) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// Family emits the HELP and TYPE header for a metric family. typ must be
// one of "counter", "gauge", "summary", "histogram", or "untyped".
func (t *TextWriter) Family(name, help, typ string) {
	t.printf("# HELP %s %s\n", name, escapeHelp(help))
	t.printf("# TYPE %s %s\n", name, typ)
}

// Label is one name="value" pair on a sample line.
type Label struct {
	Name  string
	Value string
}

// Metric emits one sample line for the family. Labels render in the given
// order; values that are NaN or infinite render in Prometheus notation.
func (t *TextWriter) Metric(name string, value float64, labels ...Label) {
	if t.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	t.printf("%s %s\n", sb.String(), formatValue(value))
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// The escape replacers are package-level: strings.NewReplacer builds its
// lookup machinery lazily but the Replacer value itself is a per-call
// allocation when constructed inline, and /metrics renders hundreds of
// escaped strings per scrape. A shared Replacer is safe for concurrent
// use.
var (
	helpReplacer  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelReplacer = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string { return helpReplacer.Replace(s) }

func escapeLabel(s string) string { return labelReplacer.Replace(s) }

// WriteSnapshots renders per-service monitor snapshots as a set of metric
// families named <prefix>_*, one sample per snapshot labelled
// <label>="<name>". Latency renders as a summary in seconds with P50/P95/P99
// quantiles plus the _sum/_count convention derived from the mean. The
// HTTP façade renders the SDK's service monitors with it (prefix
// "richsdk_service", label "service").
func WriteSnapshots(t *TextWriter, prefix, label string, snaps []Snapshot) {
	t.Family(prefix+"_invocations_total", "Total invocations recorded.", "counter")
	for _, s := range snaps {
		t.Metric(prefix+"_invocations_total", float64(s.Count), Label{label, s.Name})
	}
	t.Family(prefix+"_failures_total", "Invocations that returned an error.", "counter")
	for _, s := range snaps {
		t.Metric(prefix+"_failures_total", float64(s.Failures), Label{label, s.Name})
	}
	t.Family(prefix+"_retries_total", "Transport attempts beyond each invocation's first.", "counter")
	for _, s := range snaps {
		t.Metric(prefix+"_retries_total", float64(s.Retries), Label{label, s.Name})
	}
	t.Family(prefix+"_availability", "Success fraction over all recorded invocations.", "gauge")
	for _, s := range snaps {
		t.Metric(prefix+"_availability", s.Availability, Label{label, s.Name})
	}
	lat := prefix + "_latency_seconds"
	t.Family(lat, "Latency of successful invocations.", "summary")
	for _, s := range snaps {
		succ := s.Count - s.Failures
		t.Metric(lat, seconds(s.P50Latency), Label{label, s.Name}, Label{"quantile", "0.5"})
		t.Metric(lat, seconds(s.P95Latency), Label{label, s.Name}, Label{"quantile", "0.95"})
		t.Metric(lat, seconds(s.P99Latency), Label{label, s.Name}, Label{"quantile", "0.99"})
		t.Metric(lat+"_sum", seconds(s.MeanLatency)*float64(succ), Label{label, s.Name})
		t.Metric(lat+"_count", float64(succ), Label{label, s.Name})
	}
	t.Family(prefix+"_quality_ratings_total", "User-supplied quality ratings recorded.", "counter")
	for _, s := range snaps {
		t.Metric(prefix+"_quality_ratings_total", float64(s.QualityCount), Label{label, s.Name})
	}
	t.Family(prefix+"_quality_mean", "Mean user-supplied quality rating (0 when never rated).", "gauge")
	for _, s := range snaps {
		t.Metric(prefix+"_quality_mean", s.MeanQuality, Label{label, s.Name})
	}
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// expoMinExp is the smallest power-of-two boundary rendered as an `le`
// bucket on the exposition page: 2^10−1 ns ≈ 1µs. Everything faster
// accumulates into that first cumulative bucket; the in-memory histogram
// keeps full sub-microsecond resolution regardless — the ladder only
// throttles how many lines a scrape carries.
const expoMinExp = 10

// WriteHistogram renders one histogram sample set in true Prometheus
// histogram exposition format: cumulative `le` buckets at every power of
// two from ~1µs to ~73min (le in seconds), a `+Inf` bucket equal to
// `_count`, and the `_sum`/`_count` pair. The `le` label is appended
// after the caller's labels.
func WriteHistogram(t *TextWriter, name string, s HistSnapshot, labels ...Label) {
	if len(s.Buckets) < histNumBuckets {
		b := make([]uint64, histNumBuckets)
		copy(b, s.Buckets)
		s.Buckets = b
	}
	bucket := name + "_bucket"
	lbls := make([]Label, len(labels)+1)
	copy(lbls, labels)
	var cum uint64
	next := 0
	for e := expoMinExp; e <= histMaxExp; e++ {
		end := (e - histSubBits + 1) << histSubBits // first bucket past upper 2^e−1
		for ; next < end; next++ {
			cum += s.Buckets[next]
		}
		lbls[len(labels)] = Label{"le", formatValue(float64(int64(1)<<e-1) / 1e9)}
		t.Metric(bucket, float64(cum), lbls...)
	}
	lbls[len(labels)] = Label{"le", "+Inf"}
	t.Metric(bucket, float64(s.Count), lbls...)
	t.Metric(name+"_sum", seconds(s.Sum), labels...)
	t.Metric(name+"_count", float64(s.Count), labels...)
}
