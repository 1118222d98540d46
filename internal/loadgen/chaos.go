package loadgen

import (
	"context"
	"sort"
	"time"

	"repro/internal/xrand"
)

// Event is one scripted chaos action, fired At after the schedule starts.
type Event struct {
	At   time.Duration
	Name string
	Do   func()
}

// Schedule is a deterministic sequence of chaos events. Build one with
// RandomStorms (events are sorted by At), then Play it alongside a load
// run. The schedule owns no clock state between plays, so the same
// schedule replays identically.
type Schedule struct {
	events []Event
}

// newSchedule returns a schedule of the given events, sorted by At.
func newSchedule(events ...Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	return s
}

// Events returns the schedule in firing order, for logging and reports.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Play fires the events at their offsets from now, returning when the
// last has fired or ctx is cancelled. Run it in a goroutine next to
// loadgen.Run to storm a live load run.
func (s *Schedule) Play(ctx context.Context) {
	start := time.Now()
	for _, ev := range s.events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
		ev.Do()
	}
}

// storm is the basic on/off pair: on fires at `at`, off fires at
// `at+dur`. Name both events after the fault for readable schedules.
func storm(at, dur time.Duration, name string, on, off func()) []Event {
	return []Event{
		{At: at, Name: name + ":on", Do: on},
		{At: at + dur, Name: name + ":off", Do: off},
	}
}

// Fault is one injectable fault mode for RandomStorms: a named on/off
// toggle (flip a service down, set a fail rate, add a latency spike, start
// a slow drip).
type Fault struct {
	Name string
	On   func()
	Off  func()
}

// RandomStorms builds a deterministic seeded schedule of n storms over
// horizon: each storm picks a fault uniformly, a start uniform in the
// horizon, and a duration exponential around horizon/(2n), clamped so
// every storm's off-event lands inside the horizon. The same seed and
// fault list always produce the same schedule — chaos that reproduces.
func RandomStorms(seed int64, horizon time.Duration, n int, faults []Fault) *Schedule {
	src := xrand.New(seed)
	var events []Event
	for i := 0; i < n && len(faults) > 0; i++ {
		f := faults[src.Intn(len(faults))]
		at := time.Duration(src.Float64() * float64(horizon))
		mean := float64(horizon) / float64(2*n)
		dur := time.Duration(src.Exponential(mean))
		if dur < time.Millisecond {
			dur = time.Millisecond
		}
		if at+dur > horizon {
			dur = horizon - at
		}
		events = append(events, storm(at, dur, f.Name, f.On, f.Off)...)
	}
	return newSchedule(events...)
}
