package failover

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
)

// ErrBreakerOpen is returned when a circuit breaker is open: the caller
// refuses the call without reaching the service or node. It deliberately
// does not match service.ErrUnavailable so a retry policy will not spin on
// a breaker that cannot close before the cooldown.
var ErrBreakerOpen = errors.New("failover: circuit breaker open")

// ErrDeadline is returned when a call's predicted-latency deadline expires
// before the service responds. A breaker counts it as a transient failure
// (a too-slow service is treated like an unavailable one); a RetryPolicy,
// which retries only service.ErrUnavailable, does not retry it.
var ErrDeadline = errors.New("failover: predicted-latency deadline exceeded")

// BreakerConfig configures per-service (or per-node) circuit breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures
	// (service.ErrUnavailable or ErrDeadline) that trips the breaker.
	// Zero disables circuit breaking.
	Threshold int
	// Cooldown is how long an open breaker rejects calls before
	// admitting a single half-open probe. Zero means 30 seconds.
	Cooldown time.Duration
}

// Breaker is a circuit breaker for one service. Closed, it admits every
// call and counts consecutive transient failures; at Threshold it opens and
// rejects calls for the cooldown; after the cooldown it admits one probe
// (half-open) and closes again on any non-transient outcome. It is safe for
// concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clk       clock.Clock

	mu          sync.Mutex
	consecutive int
	open        bool
	probing     bool
	openedAt    time.Time
}

// Allow reports whether a call may proceed, admitting the half-open probe
// when an open breaker's cooldown has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.probing && b.clk.Since(b.openedAt) >= b.cooldown {
		b.probing = true
		return true
	}
	return false
}

// Record folds one call outcome into the breaker. Transient failures count
// toward the threshold and re-open a probing breaker; any other outcome —
// success or a permanent error, both proof the service is responsive —
// closes it.
func (b *Breaker) Record(err error) {
	transient := err != nil &&
		(errors.Is(err, service.ErrUnavailable) || errors.Is(err, ErrDeadline))
	b.mu.Lock()
	defer b.mu.Unlock()
	if !transient {
		b.consecutive = 0
		b.open = false
		b.probing = false
		return
	}
	b.consecutive++
	if b.probing {
		b.probing = false
		b.openedAt = b.clk.Now()
		return
	}
	if !b.open && b.consecutive >= b.threshold {
		b.open = true
		b.openedAt = b.clk.Now()
	}
}

// Tripped reports whether the breaker is currently open (including
// half-open probing). Read-only: it never transitions state, so ranking can
// consult it without stealing the probe slot.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// State names the breaker's current state: "closed", "open" or
// "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state()
}

// state is State with b.mu held.
func (b *Breaker) state() string {
	switch {
	case b.open && b.probing:
		return "half-open"
	case b.open:
		return "open"
	default:
		return "closed"
	}
}

// BreakerState is a point-in-time summary of one breaker, as the SDK's
// façade (/v1/breakers) and the store gateway (GET /cluster) expose it.
type BreakerState struct {
	Service     string `json:"service"`
	State       string `json:"state"`
	Consecutive int    `json:"consecutiveFailures"`
}

// BreakerSet holds one breaker per name, creating them lazily. It is safe
// for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	clk clock.Clock

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet returns an empty set producing breakers from cfg. A nil clk
// uses the real clock.
func NewBreakerSet(cfg BreakerConfig, clk clock.Clock) *BreakerSet {
	if cfg.Threshold > 0 && cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if clk == nil {
		clk = clock.Real()
	}
	return &BreakerSet{cfg: cfg, clk: clk, m: make(map[string]*Breaker)}
}

// For returns the breaker for the named service, creating it on first use.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[name]
	if b == nil {
		b = &Breaker{threshold: s.cfg.Threshold, cooldown: s.cfg.Cooldown, clk: s.clk}
		s.m[name] = b
	}
	return b
}

// Tripped reports whether the named service's breaker is open. Services
// never seen by the set are closed.
func (s *BreakerSet) Tripped(name string) bool {
	s.mu.Lock()
	b := s.m[name]
	s.mu.Unlock()
	return b != nil && b.Tripped()
}

// States summarizes every breaker the set has created, sorted by service.
func (s *BreakerSet) States() []BreakerState {
	s.mu.Lock()
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	breakers := make([]*Breaker, len(names))
	for i, n := range names {
		breakers[i] = s.m[n]
	}
	s.mu.Unlock()
	out := make([]BreakerState, len(names))
	for i, b := range breakers {
		b.mu.Lock()
		out[i] = BreakerState{Service: names[i], State: b.state(), Consecutive: b.consecutive}
		b.mu.Unlock()
	}
	return out
}
