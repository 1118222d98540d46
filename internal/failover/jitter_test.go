package failover

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
)

// recordingClock is a clock.Clock whose After fires instantly and records
// every requested duration, so backoff schedules can be asserted exactly
// without real sleeping.
type recordingClock struct {
	mu   sync.Mutex
	durs []time.Duration
}

func newRecordingClock() *recordingClock { return &recordingClock{} }

var _ clock.Clock = (*recordingClock)(nil)

func (c *recordingClock) Now() time.Time                  { return time.Unix(0, 0) }
func (c *recordingClock) Sleep(d time.Duration)           { c.record(d) }
func (c *recordingClock) Since(t time.Time) time.Duration { return 0 }

func (c *recordingClock) After(d time.Duration) <-chan time.Time {
	c.record(d)
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

func (c *recordingClock) record(d time.Duration) {
	c.mu.Lock()
	c.durs = append(c.durs, d)
	c.mu.Unlock()
}

func (c *recordingClock) waits() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.durs...)
}

// backoffSchedule runs one retried invocation against a permanently-failing
// service and returns the exact sequence of slept backoffs.
func backoffSchedule(t *testing.T, policy RetryPolicy) []time.Duration {
	t.Helper()
	svc := alwaysFail("dead", service.ErrUnavailable)
	clk := newRecordingClock()
	_, _, err := InvokeFunc(context.Background(), clk, attempt(svc), policy)
	if err == nil {
		t.Fatal("expected failure from permanently-failing service")
	}
	return clk.waits()
}

// TestFullJitterBreaksLockstep is the thundering-herd regression test: two
// concurrent retriers draw different backoff schedules. With deterministic
// sleeps the two schedules would be identical every time, so the herd
// would retry in lockstep.
func TestFullJitterBreaksLockstep(t *testing.T) {
	seedJitter(7)
	policy := RetryPolicy{MaxAttempts: 4, Backoff: 100 * time.Millisecond}
	a := backoffSchedule(t, policy)
	b := backoffSchedule(t, policy)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedules = %v / %v, want 3 sleeps each", a, b)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("two retriers slept identical schedules %v — jitter is not decorrelating", a)
	}
}

// TestFullJitterDeterministicUnderSeed verifies reproducibility: reseeding
// the shared jitter stream replays the exact same jittered schedule.
func TestFullJitterDeterministicUnderSeed(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Millisecond}
	seedJitter(123)
	a := backoffSchedule(t, policy)
	seedJitter(123)
	b := backoffSchedule(t, policy)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sleep %d: %v vs %v — not deterministic under fixed seed", i, a[i], b[i])
		}
	}
}

// TestJitterBounds checks each slept value stays within its contract on
// the constant schedule: a wait in (0, Backoff] before every retry, and no
// wait at all with a zero Backoff.
func TestJitterBounds(t *testing.T) {
	seedJitter(99)
	base := 80 * time.Millisecond
	ws := backoffSchedule(t, RetryPolicy{MaxAttempts: 6, Backoff: base})
	if len(ws) != 5 {
		t.Errorf("slept %v, want a wait before each of 5 retries", ws)
	}
	for _, w := range ws {
		if w <= 0 || w > base {
			t.Errorf("slept %v, want in (0, %v]", w, base)
		}
	}
	if ws := backoffSchedule(t, RetryPolicy{MaxAttempts: 6}); len(ws) != 0 {
		t.Errorf("zero Backoff slept %v, want no waits", ws)
	}
}
