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
		MaxAttempts: 4,
		Backoff:     100 * time.Millisecond,
		Jitter:      FullJitter,
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
		MaxAttempts: 5,
		Backoff:     50 * time.Millisecond,
		Jitter:      FullJitter,
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
// contract on the constant schedule: FullJitter in (0, Backoff], noJitter
// exactly Backoff before every retry.
func TestJitterBounds(t *testing.T) {
	seedJitter(99)
	base := 80 * time.Millisecond
	mk := func(j Jitter) RetryPolicy {
		return RetryPolicy{MaxAttempts: 6, Backoff: base, Jitter: j}
	}
	for _, j := range []Jitter{noJitter, FullJitter} {
		ws := backoffSchedule(t, mk(j))
		if len(ws) != 5 {
			t.Errorf("jitter %d slept %v, want a wait before each of 5 retries", j, ws)
		}
		for _, w := range ws {
			if w <= 0 || w > base || j == noJitter && w != base {
				t.Errorf("jitter %d slept %v, want in (0, %v], exactly it without jitter", j, w, base)
			}
		}
	}
}
