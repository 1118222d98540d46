// Package metrics implements the rich SDK's service-monitoring substrate:
// it collects data on service performance (latency), availability, and
// response quality, and keeps latency histories for distribution comparison
// (paper §2). Latency as a function of user-supplied latency parameters is
// not kept here: internal/predict owns that history.
package metrics

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Observation is one completed service invocation.
type Observation struct {
	// Latency is how long the invocation took.
	Latency time.Duration
	// Err is the invocation error, nil on success.
	Err error
	// Params are the latency parameters for this invocation. The monitor
	// does not retain them (core.PredictStage feeds internal/predict, the
	// one owner of that history); the field survives only because
	// bench/probes.go sets it, and a later benchmark issue can drop it.
	Params []float64
	// Attempts is how many transport attempts the invocation made; values
	// below 1 count as a single attempt. Attempts beyond the first
	// accumulate in the monitor's retry counter.
	Attempts int
	// At is when the invocation completed. Zero means "now".
	At time.Time
}

// Snapshot is a point-in-time summary of a monitor's collected data.
type Snapshot struct {
	Name         string
	Count        uint64
	Failures     uint64
	Retries      uint64  // transport attempts beyond each invocation's first
	Availability float64 // successes / total, 1 when no data
	MeanLatency  time.Duration
	EWMALatency  time.Duration
	P50Latency   time.Duration
	P95Latency   time.Duration
	P99Latency   time.Duration
	MinLatency   time.Duration
	MaxLatency   time.Duration
	MeanQuality  float64 // 0 when never rated
	QualityCount uint64
}

// Monitor collects observations for a single service. It is safe for
// concurrent use.
type Monitor struct {
	name string

	// hist holds the full latency distribution of successful invocations
	// in log-linear buckets. It is lock-free and unsampled: Snapshot
	// quantiles read from it, while the sampled reservoir below remains
	// the distribution-comparison API (LatencyHistory/PercentileLatency).
	hist *Histogram

	mu           sync.Mutex
	clk          clock.Clock
	history      *stats.Reservoir // latency sample in milliseconds
	ewma         *stats.EWMA      // smoothed latency in milliseconds
	count        uint64
	failures     uint64
	retries      uint64
	sumLatencyMS float64
	minMS        float64
	maxMS        float64

	qualitySum   float64
	qualityCount uint64

	// recent is a ring of the last recentSize observations, for windows.
	// Its storage grows with what has been recorded, by doubling up to
	// recentSize and never past it; rpos is the oldest slot once full.
	recent     []timedObs
	recentSize int
	rpos       int
}

type timedObs struct {
	at    time.Time
	latMS float64
	ok    bool
}

const (
	defaultHistorySize = 2048
	defaultRecentSize  = 4096
	defaultEWMAAlpha   = 0.2
	// minRecentRoom is the storage a monitor's first observation
	// allocates for the ring, in observations (recentSize permitting).
	minRecentRoom = 16
)

// newHistory returns the latency reservoir for a history of n samples. Its
// replacement draws come from math/rand seeded with seed, but the 5 KB
// generator is built at the first draw — the (n+1)-th success — so a
// monitor that never overflows its history never pays for one.
func newHistory(n int, seed int64) *stats.Reservoir {
	var rng *rand.Rand
	return stats.NewReservoir(n, func() float64 {
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		}
		return rng.Float64()
	})
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithClock sets the clock used to timestamp observations.
func WithClock(c clock.Clock) Option { return func(m *Monitor) { m.clk = c } }

// WithHistorySize bounds the retained latency sample.
func WithHistorySize(n int) Option {
	return func(m *Monitor) {
		if n > 0 {
			m.history = newHistory(n, int64(n))
		}
	}
}

// WithEWMAAlpha sets the smoothing factor for the exponentially weighted
// latency average.
func WithEWMAAlpha(alpha float64) Option {
	return func(m *Monitor) { m.ewma = stats.NewEWMA(alpha) }
}

// WithRecentSize bounds the ring of timestamped recent observations that
// backs WindowAvailability. The ring's capacity and the query window
// interact: WindowAvailability(d) only sees observations that are both
// newer than d and among the last n recorded, so a ring smaller than the
// observation rate times d silently narrows the effective window. Size the
// ring for the longest window queried at the peak recording rate; the
// default is 4096 observations.
func WithRecentSize(n int) Option {
	return func(m *Monitor) {
		if n > 0 {
			m.recentSize = n
		}
	}
}

// NewMonitor returns a Monitor for the named service.
func NewMonitor(name string, opts ...Option) *Monitor {
	m := &Monitor{
		name:       name,
		hist:       NewHistogram(),
		clk:        clock.Real(),
		history:    newHistory(defaultHistorySize, 1),
		ewma:       stats.NewEWMA(defaultEWMAAlpha),
		recentSize: defaultRecentSize,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name returns the monitored service's name.
func (m *Monitor) Name() string { return m.name }

// Record folds an observation into the monitor.
func (m *Monitor) Record(o Observation) {
	ms := float64(o.Latency) / float64(time.Millisecond)
	at := o.At
	if at.IsZero() {
		at = m.clk.Now()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count++
	if o.Attempts > 1 {
		m.retries += uint64(o.Attempts - 1)
	}
	if o.Err != nil {
		m.failures++
	} else {
		// Latency statistics track successful invocations only: a fast
		// failure says nothing about how long a successful call takes.
		m.hist.Observe(o.Latency)
		m.history.Observe(ms)
		m.ewma.Observe(ms)
		m.sumLatencyMS += ms
		if m.count-m.failures == 1 || ms < m.minMS {
			m.minMS = ms
		}
		if ms > m.maxMS {
			m.maxMS = ms
		}
	}
	obs := timedObs{at: at, latMS: ms, ok: o.Err == nil}
	if len(m.recent) < m.recentSize {
		if len(m.recent) == cap(m.recent) {
			grown := make([]timedObs, len(m.recent), min(max(2*cap(m.recent), minRecentRoom), m.recentSize))
			copy(grown, m.recent)
			m.recent = grown
		}
		m.recent = append(m.recent, obs)
	} else {
		m.recent[m.rpos] = obs
		m.rpos = (m.rpos + 1) % len(m.recent)
	}
}

// RecordQuality folds a user-supplied quality rating for this service.
// Higher values indicate higher quality (paper §2: "users can provide
// methods to rate the quality of different services").
func (m *Monitor) RecordQuality(q float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.qualitySum += q
	m.qualityCount++
}

// Count returns the total number of recorded invocations.
func (m *Monitor) Count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Retries returns the total number of transport attempts beyond each
// invocation's first — how much retrying the failure handler has done on
// this service's behalf.
func (m *Monitor) Retries() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries
}

// Availability returns the fraction of recorded invocations that succeeded,
// or 1 if nothing has been recorded (optimistic default: an unknown service
// is assumed healthy until observed otherwise).
func (m *Monitor) Availability() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return 1
	}
	return float64(m.count-m.failures) / float64(m.count)
}

// MeanLatency returns the mean latency of successful invocations, or 0 with
// no data.
func (m *Monitor) MeanLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	succ := m.count - m.failures
	if succ == 0 {
		return 0
	}
	return time.Duration(m.sumLatencyMS / float64(succ) * float64(time.Millisecond))
}

// EWMALatency returns the exponentially weighted latency average, or 0 with
// no data.
func (m *Monitor) EWMALatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ewma.Initialized() {
		return 0
	}
	return time.Duration(m.ewma.Value() * float64(time.Millisecond))
}

// PercentileLatency returns the p-th latency percentile (0-100) from the
// retained history, or 0 with no data.
func (m *Monitor) PercentileLatency(p float64) time.Duration {
	m.mu.Lock()
	sample := m.history.Sample()
	m.mu.Unlock()
	v, err := stats.Percentile(sample, p)
	if err != nil {
		return 0
	}
	return time.Duration(v * float64(time.Millisecond))
}

// MeanQuality returns the mean recorded quality rating and how many ratings
// back it. A zero count means the service has never been rated.
func (m *Monitor) MeanQuality() (mean float64, count uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.qualityCount == 0 {
		return 0, 0
	}
	return m.qualitySum / float64(m.qualityCount), m.qualityCount
}

// LatencyHistory returns the retained latency sample in milliseconds. The
// paper's SDK "maintains histories of latencies allowing users to compare
// latency distributions".
func (m *Monitor) LatencyHistory() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.history.Sample()
}

// WindowAvailability returns the success fraction over observations made in
// the trailing window d, or 1 if the window holds no observations.
func (m *Monitor) WindowAvailability(d time.Duration) float64 {
	cutoff := m.clk.Now().Add(-d)
	m.mu.Lock()
	defer m.mu.Unlock()
	var total, ok int
	for _, o := range m.recent {
		if o.at.Before(cutoff) {
			continue
		}
		total++
		if o.ok {
			ok++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// LatencyDistribution returns the full bucketed latency distribution of
// successful invocations. Snapshots share a global bucket layout, so
// distributions from different monitors can be rolled up with Merge.
func (m *Monitor) LatencyDistribution() HistSnapshot {
	return m.hist.Snapshot()
}

// Snapshot returns a point-in-time summary.
//
// P50/P95/P99 are exact bucketed quantiles over every successful
// invocation, read from the monitor's lock-free histogram: each is the
// upper bound of the log-linear bucket (width ≤ 6.25% of the value)
// holding that rank, with no sampling error. Earlier versions
// interpolated them from the sampled reservoir, which could drift once
// the observation count exceeded the reservoir size; the reservoir now
// backs only the distribution-comparison API (LatencyHistory,
// PercentileLatency).
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	s := Snapshot{
		Name:         m.name,
		Count:        m.count,
		Failures:     m.failures,
		Retries:      m.retries,
		MinLatency:   time.Duration(m.minMS * float64(time.Millisecond)),
		MaxLatency:   time.Duration(m.maxMS * float64(time.Millisecond)),
		QualityCount: m.qualityCount,
	}
	if m.count > 0 {
		s.Availability = float64(m.count-m.failures) / float64(m.count)
	} else {
		s.Availability = 1
	}
	if succ := m.count - m.failures; succ > 0 {
		s.MeanLatency = time.Duration(m.sumLatencyMS / float64(succ) * float64(time.Millisecond))
	}
	if m.ewma.Initialized() {
		s.EWMALatency = time.Duration(m.ewma.Value() * float64(time.Millisecond))
	}
	if m.qualityCount > 0 {
		s.MeanQuality = m.qualitySum / float64(m.qualityCount)
	}
	m.mu.Unlock()

	// Quantiles come from the bucketed histogram — exact rank selection
	// over all observations, not the sampled reservoir.
	hs := m.hist.Snapshot()
	s.P50Latency = hs.Quantile(0.50)
	s.P95Latency = hs.Quantile(0.95)
	s.P99Latency = hs.Quantile(0.99)
	return s
}
