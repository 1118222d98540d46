package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/service"
)

// errShed is returned when the adaptive admission controller refuses a
// call: the client is over its concurrency limit and taking more work
// would push admitted requests past the latency target. The HTTP facade
// maps it to 429, the fast "try again later" that keeps an overloaded
// facade responsive instead of letting every caller queue into collapse.
var errShed = errors.New("core: overloaded, call shed")

// ShedConfig configures the adaptive admission-control stage (shedStage).
// The controller is an AIMD loop on a concurrency limit: admitted-call
// latency above TargetP99 multiplies the limit down; a healthy window with
// demand pressure (rejections, or high utilization) grows it back
// additively. This is the classic congestion-control shape — back off
// multiplicatively on overload signals, probe upward gently — applied to
// the facade's in-flight call count.
type ShedConfig struct {
	// TargetP99 is the admitted-call p99 latency the controller defends.
	// Zero disables shedding entirely.
	TargetP99 time.Duration
	// MaxInFlight caps the concurrency limit (and is its starting
	// value). Zero means 256.
	MaxInFlight int
	// MinInFlight floors the limit so multiplicative decrease can never
	// choke admission to zero. Zero means 4.
	MinInFlight int
	// Window is how often the controller re-evaluates the limit against
	// the latest latency window. Zero means 100ms.
	Window time.Duration
}

// shedDecrease multiplies the limit on an over-target window.
const shedDecrease = 0.75

func (c *ShedConfig) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MinInFlight <= 0 {
		c.MinInFlight = 4
	}
	if c.MinInFlight > c.MaxInFlight {
		c.MinInFlight = c.MaxInFlight
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
}

// Shedder is the adaptive admission controller behind shedStage. The
// admit/release fast path is a pair of atomics; only the periodic
// adaptation (once per Window) takes a lock. It is safe for concurrent
// use.
type Shedder struct {
	cfg ShedConfig
	clk clock.Clock

	inflight atomic.Int64  // current in-flight admitted calls
	limit    atomic.Int64  // current concurrency limit
	admitted atomic.Uint64 // total admitted
	rejected atomic.Uint64 // total shed

	hist *metrics.Histogram // cumulative admitted-call latency

	lastAdapt atomic.Int64 // clk nanos of the last adaptation, CAS-guarded

	mu           sync.Mutex // serializes adapt(); guards the prev* window state
	prevSnap     metrics.HistSnapshot
	prevRejected uint64
}

// newShedder returns a controller with the limit opened to MaxInFlight.
// A nil clk uses the real clock.
func newShedder(cfg ShedConfig, clk clock.Clock) *Shedder {
	cfg.fill()
	if clk == nil {
		clk = clock.Real()
	}
	s := &Shedder{cfg: cfg, clk: clk, hist: metrics.NewHistogram()}
	s.limit.Store(int64(cfg.MaxInFlight))
	s.lastAdapt.Store(clk.Now().UnixNano())
	return s
}

// tryAcquire admits the call if the in-flight count is under the current
// limit. On admission the caller must pair it with Release. Admission is a
// CAS loop rather than a blind increment-then-rollback: a rejected probe
// must not touch the counter at all, or a herd of spinning shed callers
// keeps the count transiently inflated and starves the callers that would
// actually fit under the limit (a livelock the first chaos runs hit).
func (s *Shedder) tryAcquire() bool {
	limit := s.limit.Load()
	for {
		in := s.inflight.Load()
		if in >= limit {
			s.rejected.Add(1)
			// The reject path must drive adaptation too: when the
			// limit has collapsed and nothing is being admitted there
			// are no Release calls, and a Release-only controller
			// would stay collapsed forever.
			s.maybeAdapt()
			return false
		}
		if s.inflight.CompareAndSwap(in, in+1) {
			s.admitted.Add(1)
			return true
		}
	}
}

// Release returns an admitted call's slot and folds its observed latency
// into the controller's window, adapting the limit when a window has
// elapsed.
func (s *Shedder) Release(lat time.Duration) {
	s.inflight.Add(-1)
	s.hist.Observe(lat)
	s.maybeAdapt()
}

// maybeAdapt runs the adaptation when a full window has elapsed since the
// last one; a single CAS winner per window does the work.
func (s *Shedder) maybeAdapt() {
	now := s.clk.Now().UnixNano()
	last := s.lastAdapt.Load()
	if now-last < int64(s.cfg.Window) {
		return
	}
	if !s.lastAdapt.CompareAndSwap(last, now) {
		return
	}
	s.adapt()
}

// adapt recomputes the limit from the latest window: the bucket-wise
// difference of cumulative histogram snapshots yields the window's own
// latency distribution (the histogram has no reset — snapshots only grow),
// whose p99 drives the AIMD step.
func (s *Shedder) adapt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.hist.Snapshot()
	win := windowDelta(snap, s.prevSnap)
	rejectedNow := s.rejected.Load()
	winRejected := rejectedNow - s.prevRejected
	s.prevSnap = snap
	s.prevRejected = rejectedNow

	if win.Count == 0 && winRejected == 0 {
		return // idle window: nothing to learn
	}
	limit := s.limit.Load()
	switch {
	case win.Count > 0 && win.Quantile(0.99) > s.cfg.TargetP99:
		// Over target: multiplicative decrease.
		limit = int64(float64(limit) * shedDecrease)
		if limit < int64(s.cfg.MinInFlight) {
			limit = int64(s.cfg.MinInFlight)
		}
	case winRejected > 0 || s.inflight.Load()*4 >= limit*3:
		// Healthy window but demand pressure (we shed callers, or are
		// running ≥75% utilized): additive-ish increase, probing upward.
		step := limit / 4
		if step < 1 {
			step = 1
		}
		limit += step
		if limit > int64(s.cfg.MaxInFlight) {
			limit = int64(s.cfg.MaxInFlight)
		}
	}
	s.limit.Store(limit)
}

// windowDelta subtracts the previous cumulative snapshot from the current
// one bucket-wise, producing the distribution of just the observations in
// between. prev with no buckets (the first window) passes cur through.
func windowDelta(cur, prev metrics.HistSnapshot) metrics.HistSnapshot {
	if len(prev.Buckets) == 0 {
		return cur
	}
	d := metrics.HistSnapshot{
		Count:   cur.Count - prev.Count,
		Sum:     cur.Sum - prev.Sum,
		Buckets: make([]uint64, len(cur.Buckets)),
	}
	for i := range cur.Buckets {
		d.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// inFlight returns the current admitted in-flight count.
func (s *Shedder) inFlight() int64 { return s.inflight.Load() }

// Limit returns the current adaptive concurrency limit.
func (s *Shedder) Limit() int64 { return s.limit.Load() }

// Admitted returns the total calls admitted since construction.
func (s *Shedder) Admitted() uint64 { return s.admitted.Load() }

// Rejected returns the total calls shed since construction.
func (s *Shedder) Rejected() uint64 { return s.rejected.Load() }

// latencySnapshot returns the cumulative admitted-call latency
// distribution, for /metrics exposition and experiment reporting.
func (s *Shedder) latencySnapshot() metrics.HistSnapshot { return s.hist.Snapshot() }

// shedStage is the adaptive load-shedding stage. It sits after the
// breaker on purpose: breaker-open fast-fails never enter the admission
// window, so their microsecond latencies cannot drag the windowed p99
// down and crank the limit back open during an outage (and a shed call
// never counts as a breaker failure). Rejected calls fail fast with
// errShed; admitted calls are timed on the shedder's clock and their
// latency drives the AIMD loop.
func shedStage(s *Shedder) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) (service.Response, error) {
			parent := call.span
			sp := parent.Child("shed")
			if !s.tryAcquire() {
				err := fmt.Errorf("%w: %s (inflight limit %d)", errShed, call.reg.name, s.Limit())
				sp.SetAttr("shed", "rejected")
				sp.SetError(err)
				sp.End()
				return service.Response{}, err
			}
			sp.SetAttr("shed", "admitted")
			call.span = sp
			start := s.clk.Now()
			// Deferred so that a panicking service gives its slot back
			// too; the panic goes on up the stack.
			defer func() {
				s.Release(s.clk.Since(start))
				call.span = parent
				sp.End()
			}()
			return next(ctx, call)
		}
	}
}
