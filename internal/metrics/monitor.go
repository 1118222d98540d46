// Package metrics implements the rich SDK's service-monitoring substrate:
// it collects data on service performance (latency), availability, and
// response quality, and keeps latency histories for distribution comparison
// (paper §2). Latency as a function of user-supplied latency parameters is
// not kept here: internal/predict owns that history.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Observation is one completed service invocation.
type Observation struct {
	// Latency is how long the invocation took.
	Latency time.Duration
	// Err is the invocation error, nil on success.
	Err error
	// Params are the latency parameters for this invocation. The monitor
	// does not retain them (core's predictStage feeds internal/predict, the
	// one owner of that history); the field survives only because
	// bench/probes.go sets it, and a later benchmark issue can drop it.
	Params []float64
	// Attempts is how many transport attempts the invocation made; values
	// below 1 count as a single attempt. Attempts beyond the first
	// accumulate in the monitor's retry counter.
	Attempts int
}

// Snapshot is a point-in-time summary of a monitor's collected data.
type Snapshot struct {
	Name         string
	Count        uint64
	Failures     uint64
	Retries      uint64  // transport attempts beyond each invocation's first
	Availability float64 // successes / total, 1 when no data
	MeanLatency  time.Duration
	P50Latency   time.Duration
	P95Latency   time.Duration
	P99Latency   time.Duration
	MinLatency   time.Duration
	MaxLatency   time.Duration
	MeanQuality  float64 // 0 when never rated
	QualityCount uint64
}

// Monitor collects observations for a single service. It is safe for
// concurrent use and takes no lock: Record is a handful of atomic
// operations and allocates nothing.
//
// Latency statistics track successful invocations only: a fast failure
// says nothing about how long a successful call takes. They are kept in
// integer nanoseconds, so Mean, Min and Max are exact.
type Monitor struct {
	name string

	// What a success writes besides its bucket sits in one cache line:
	// these three words and hist.sum, which leads the histogram. Callers
	// of one hot service then contend for two lines per Record, not four.
	successes atomic.Uint64
	// minNS and maxNS bound the successful latencies; they hold their
	// sentinels (MaxInt64, MinInt64) until the first success.
	minNS atomic.Int64
	maxNS atomic.Int64
	// hist is the latency distribution of successful invocations:
	// log-linear buckets plus the exact nanosecond sum of what they hold.
	hist Histogram

	failures     atomic.Uint64
	retries      atomic.Uint64
	qualitySum   atomic.Uint64 // float64 bits
	qualityCount atomic.Uint64
}

// NewMonitor returns a Monitor for the named service.
func NewMonitor(name string) *Monitor {
	m := &Monitor{name: name}
	m.minNS.Store(math.MaxInt64)
	m.maxNS.Store(math.MinInt64)
	return m
}

// Name returns the monitored service's name.
func (m *Monitor) Name() string { return m.name }

// Record folds an observation into the monitor.
func (m *Monitor) Record(o Observation) {
	if o.Attempts > 1 {
		m.retries.Add(uint64(o.Attempts - 1))
	}
	if o.Err != nil {
		m.failures.Add(1)
		return
	}
	ns := int64(o.Latency)
	for cur := m.minNS.Load(); ns < cur; cur = m.minNS.Load() {
		if m.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for cur := m.maxNS.Load(); ns > cur; cur = m.maxNS.Load() {
		if m.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	m.hist.Observe(o.Latency)
	// The success is counted last, so a reader that sees it also sees its
	// latency in the sum, min and max.
	m.successes.Add(1)
}

// RecordQuality folds a user-supplied quality rating for this service.
// Higher values indicate higher quality (paper §2: "users can provide
// methods to rate the quality of different services").
func (m *Monitor) RecordQuality(q float64) {
	for {
		old := m.qualitySum.Load()
		if m.qualitySum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+q)) {
			break
		}
	}
	m.qualityCount.Add(1)
}

// Count returns the total number of recorded invocations.
func (m *Monitor) Count() uint64 { return m.successes.Load() + m.failures.Load() }

// Availability returns the fraction of recorded invocations that succeeded,
// or 1 if nothing has been recorded (optimistic default: an unknown service
// is assumed healthy until observed otherwise).
func (m *Monitor) Availability() float64 {
	return availability(m.successes.Load(), m.failures.Load())
}

func availability(ok, failed uint64) float64 {
	if ok+failed == 0 {
		return 1
	}
	return float64(ok) / float64(ok+failed)
}

// MeanLatency returns the mean latency of successful invocations, or 0 with
// no data.
func (m *Monitor) MeanLatency() time.Duration {
	return m.meanLatency(m.successes.Load())
}

// meanLatency divides the latency sum by ok, a success count loaded before
// the sum; it truncates once, to the nanosecond.
func (m *Monitor) meanLatency(ok uint64) time.Duration {
	if ok == 0 {
		return 0
	}
	return time.Duration(m.hist.sum.Load()) / time.Duration(ok)
}

// MeanQuality returns the mean recorded quality rating and how many ratings
// back it. A zero count means the service has never been rated.
func (m *Monitor) MeanQuality() (mean float64, count uint64) {
	n := m.qualityCount.Load()
	if n == 0 {
		return 0, 0
	}
	return math.Float64frombits(m.qualitySum.Load()) / float64(n), n
}

// Snapshot returns a point-in-time summary. Its fields are read one by one
// while writers may be running, so a snapshot taken under concurrent
// Record calls can lag individual observations.
//
// P50/P95/P99 are exact bucketed quantiles over every successful
// invocation: each is the upper bound of the log-linear bucket (width
// ≤ 6.25% of the value) holding that rank, with no sampling error.
func (m *Monitor) Snapshot() Snapshot {
	ok, failed := m.successes.Load(), m.failures.Load()
	s := Snapshot{
		Name:         m.name,
		Count:        ok + failed,
		Failures:     failed,
		Retries:      m.retries.Load(),
		Availability: availability(ok, failed),
		MeanLatency:  m.meanLatency(ok),
	}
	if ok > 0 {
		s.MinLatency = time.Duration(m.minNS.Load())
		s.MaxLatency = time.Duration(m.maxNS.Load())
	}
	s.MeanQuality, s.QualityCount = m.MeanQuality()
	hs := m.hist.Snapshot()
	s.P50Latency = hs.Quantile(0.50)
	s.P95Latency = hs.Quantile(0.95)
	s.P99Latency = hs.Quantile(0.99)
	return s
}
