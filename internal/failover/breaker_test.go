package failover

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
)

func transientErr() error { return fmt.Errorf("down: %w", service.ErrUnavailable) }

// newBreaker returns a closed breaker of its own set.
func newBreaker(cfg BreakerConfig, clk clock.Clock) *Breaker {
	return NewBreakerSet(cfg, clk).For("svc")
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, clk)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(transientErr())
	}
	if !b.Tripped() {
		t.Fatal("breaker should be open after 3 consecutive transient failures")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, clk)
	for round := 0; round < 4; round++ {
		b.Record(transientErr())
		b.Record(transientErr())
		b.Record(nil) // success before the threshold
	}
	if b.Tripped() {
		t.Fatal("breaker tripped despite successes resetting the streak")
	}
}

func TestBreakerPermanentErrorsDoNotTrip(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, clk)
	for i := 0; i < 5; i++ {
		b.Record(fmt.Errorf("bad: %w", service.ErrBadRequest))
	}
	if b.Tripped() {
		t.Fatal("permanent errors must not trip the breaker: the service is responsive")
	}
}

func TestBreakerDeadlineCountsAsTransient(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, clk)
	b.Record(fmt.Errorf("slow: %w", ErrDeadline))
	b.Record(fmt.Errorf("slow: %w", ErrDeadline))
	if !b.Tripped() {
		t.Fatal("deadline failures must count toward the threshold")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := newBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute}, clk)
	b.Record(transientErr())
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	clk.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: breaker should admit one probe")
	}
	if b.Allow() {
		t.Fatal("only one half-open probe may proceed")
	}
	// Failed probe re-opens for a fresh cooldown.
	b.Record(transientErr())
	clk.Advance(30 * time.Second)
	if b.Allow() {
		t.Fatal("failed probe must restart the cooldown")
	}
	clk.Advance(30 * time.Second)
	if !b.Allow() {
		t.Fatal("fresh cooldown elapsed: probe expected")
	}
	// Successful probe closes the breaker.
	b.Record(nil)
	if b.Tripped() || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

// breakerModel is the plain closed/open/half-open state machine a Breaker
// must follow, on a clock kept as an offset from the start.
type breakerModel struct {
	threshold int
	cooldown  time.Duration
	now       time.Duration
	state     string // "closed", "open" or "half-open"
	streak    int    // consecutive transient failures
	opened    time.Duration
}

func (m *breakerModel) allow() bool {
	switch m.state {
	case "closed":
		return true
	case "open":
		if m.now-m.opened >= m.cooldown {
			m.state = "half-open"
			return true
		}
	}
	return false
}

func (m *breakerModel) record(transient bool) {
	if !transient {
		m.state, m.streak = "closed", 0
		return
	}
	m.streak++
	switch {
	case m.state == "half-open":
		m.state, m.opened = "open", m.now
	case m.state == "closed" && m.streak >= m.threshold:
		m.state, m.opened = "open", m.now
	}
}

// FuzzBreaker drives a Breaker on a virtual clock and holds Allow, Tripped,
// State and the set's States to breakerModel after every step. The first
// byte sets the threshold (1–4); the cooldown is 10 s. Each later byte is
// one operation: its top two bits pick Allow (0, 3), Record (1) or Advance
// (2); a Record's low two bits pick a nil, transient, permanent or
// deadline error, and an Advance moves the clock by its low six bits in
// seconds. Named seeds in testdata/fuzz/FuzzBreaker: a trip, a failed and
// a successful probe, a deadline streak, failures recorded while open.
func FuzzBreaker(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const cooldown = 10 * time.Second
		start := time.Unix(0, 0)
		clk := clock.NewVirtual(start)
		m := &breakerModel{threshold: 1 + int(ops[0]&3), cooldown: cooldown, state: "closed"}
		set := NewBreakerSet(BreakerConfig{Threshold: m.threshold, Cooldown: cooldown}, clk)
		b := set.For("svc")
		outcomes := []error{nil, transientErr(), fmt.Errorf("bad: %w", service.ErrBadRequest), fmt.Errorf("slow: %w", ErrDeadline)}
		for step, op := range ops[1:] {
			switch op >> 6 {
			case 0, 3:
				if got, want := b.Allow(), m.allow(); got != want {
					t.Fatalf("step %d: Allow = %v, model %v", step, got, want)
				}
			case 1:
				b.Record(outcomes[op&3])
				m.record(op&3 == 1 || op&3 == 3)
			case 2:
				d := time.Duration(op&63) * time.Second
				clk.Advance(d)
				m.now += d
			}
			tripped := m.state != "closed"
			if b.Tripped() != tripped || set.Tripped("svc") != tripped {
				t.Fatalf("step %d: Tripped = %v, set %v, model %v", step, b.Tripped(), set.Tripped("svc"), tripped)
			}
			if got := b.State(); got != m.state {
				t.Fatalf("step %d: State = %s, model %s", step, got, m.state)
			}
			want := []BreakerState{{Service: "svc", State: m.state, Consecutive: m.streak}}
			if got := set.States(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: States = %+v, model %+v", step, got, want)
			}
		}
	})
}
