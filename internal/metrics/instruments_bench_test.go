package metrics

import (
	"io"
	"strings"
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewGauge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 123 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			b.Fatal("empty")
		}
	}
}

// oldEscapeLabel is the pre-hoist implementation kept for comparison: it
// built a strings.Replacer on every call.
func oldEscapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func BenchmarkEscapeLabel(b *testing.B) {
	in := `a "quoted" value with \backslashes\ and` + "\nnewlines"
	b.Run("hoisted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			escapeLabel(in)
		}
	})
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oldEscapeLabel(in)
		}
	})
	b.Run("hoisted-clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			escapeLabel("no-escaping-needed")
		}
	})
}

func BenchmarkSetExpose(b *testing.B) {
	s := NewSet()
	for _, shard := range []string{"a", "b", "c", "d"} {
		s.Counter("richsdk_bench_hits_total", "Hits.", Label{"shard", shard}).Add(7)
		s.Gauge("richsdk_bench_depth", "Depth.", Label{"shard", shard}).Set(3)
		h := s.Histogram("richsdk_bench_lat_seconds", "Latency.", Label{"shard", shard})
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	}
	tw := NewTextWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Expose(tw)
	}
	if err := tw.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorRecord is one successful observation recorded into a
// service monitor from one goroutine: the lock-free path core's monitorStage
// takes on every non-cached call.
func BenchmarkMonitorRecord(b *testing.B) {
	m := NewMonitor("svc")
	o := Observation{Latency: 123 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Record(o)
	}
}

// BenchmarkMonitorRecordParallel is the contended case: every goroutine
// records into the same monitor, as callers of one hot service do.
func BenchmarkMonitorRecordParallel(b *testing.B) {
	m := NewMonitor("svc")
	o := Observation{Latency: 123 * time.Microsecond}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Record(o)
		}
	})
}

// BenchmarkNewMonitor is what one pipeline stage pays for its latency
// summary per run: build a monitor, record ten items, read it once. B/op
// is the monitor's histogram.
func BenchmarkNewMonitor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMonitor("stage")
		keptMonitor = m
		for j := 0; j < 10; j++ {
			m.Record(Observation{Latency: time.Duration(j+1) * time.Millisecond})
		}
		if m.Snapshot().Count != 10 {
			b.Fatal("snapshot lost observations")
		}
	}
}
