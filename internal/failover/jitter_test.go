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
	_, _, err := Invoke(context.Background(), clk, svc, service.Request{}, policy)
	if err == nil {
		t.Fatal("expected failure from permanently-failing service")
	}
	return clk.waits()
}

// TestFullJitterBreaksLockstep is the thundering-herd regression test: two
// concurrent retriers draw different backoff schedules under FullJitter.
// On the pre-fix code (no Jitter field, deterministic sleeps) the two
// schedules were identical every time, so the herd retried in lockstep.
func TestFullJitterBreaksLockstep(t *testing.T) {
	seedJitter(7)
	policy := RetryPolicy{
		MaxAttempts:   4,
		Backoff:       100 * time.Millisecond,
		BackoffFactor: 2,
		Jitter:        FullJitter,
	}
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
	policy := RetryPolicy{
		MaxAttempts:   5,
		Backoff:       50 * time.Millisecond,
		BackoffFactor: 2,
		MaxBackoff:    200 * time.Millisecond,
		Jitter:        FullJitter,
	}
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

// TestJitterBounds checks each mode's slept value stays within its
// contract: FullJitter in (0, wait], equalJitter in (wait/2, wait],
// noJitter exactly wait.
func TestJitterBounds(t *testing.T) {
	seedJitter(99)
	base := 80 * time.Millisecond
	mk := func(j Jitter) RetryPolicy {
		return RetryPolicy{MaxAttempts: 6, Backoff: base, BackoffFactor: 2, MaxBackoff: base, Jitter: j}
	}
	// With MaxBackoff == Backoff every un-jittered wait is exactly base.
	for _, w := range backoffSchedule(t, mk(noJitter)) {
		if w != base {
			t.Errorf("noJitter slept %v, want exactly %v", w, base)
		}
	}
	for _, w := range backoffSchedule(t, mk(FullJitter)) {
		if w <= 0 || w > base {
			t.Errorf("FullJitter slept %v, want in (0, %v]", w, base)
		}
	}
	for _, w := range backoffSchedule(t, mk(equalJitter)) {
		if w < base/2 || w > base {
			t.Errorf("equalJitter slept %v, want in [%v, %v]", w, base/2, base)
		}
	}
}

// TestJitterPreservesGrowthEnvelope: jitter perturbs each sleep but the
// envelope still grows — the un-jittered base doubles underneath, so the
// max possible sleep per retry follows the exponential schedule.
func TestJitterPreservesGrowthEnvelope(t *testing.T) {
	seedJitter(5)
	policy := RetryPolicy{
		MaxAttempts:   4,
		Backoff:       10 * time.Millisecond,
		BackoffFactor: 10,
		Jitter:        FullJitter,
	}
	ws := backoffSchedule(t, policy)
	caps := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	if len(ws) != len(caps) {
		t.Fatalf("schedule = %v, want %d sleeps", ws, len(caps))
	}
	for i, w := range ws {
		if w <= 0 || w > caps[i] {
			t.Errorf("sleep %d = %v, want in (0, %v] (exponential envelope)", i, w, caps[i])
		}
	}
}
