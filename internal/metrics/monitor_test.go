package metrics

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

var errBoom = errors.New("boom")

func TestMonitorBasicStats(t *testing.T) {
	m := NewMonitor("svc")
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		m.Record(Observation{Latency: d})
	}
	if got := m.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := m.Availability(); got != 1 {
		t.Errorf("Availability = %v, want 1", got)
	}
	if got := m.MeanLatency(); got != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 20ms", got)
	}
	if got := m.PercentileLatency(50); got != 20*time.Millisecond {
		t.Errorf("P50 = %v, want 20ms", got)
	}
}

func TestMonitorAvailability(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.Record(Observation{Latency: time.Millisecond})
	if got := m.Availability(); got != 0.5 {
		t.Errorf("Availability = %v, want 0.5", got)
	}
}

func TestMonitorEmptyDefaults(t *testing.T) {
	m := NewMonitor("svc")
	if got := m.Availability(); got != 1 {
		t.Errorf("empty Availability = %v, want 1 (optimistic)", got)
	}
	if got := m.MeanLatency(); got != 0 {
		t.Errorf("empty MeanLatency = %v, want 0", got)
	}
	if got := m.EWMALatency(); got != 0 {
		t.Errorf("empty EWMALatency = %v, want 0", got)
	}
	if got := m.PercentileLatency(99); got != 0 {
		t.Errorf("empty PercentileLatency = %v, want 0", got)
	}
	if mean, n := m.MeanQuality(); mean != 0 || n != 0 {
		t.Errorf("empty MeanQuality = (%v, %d), want (0, 0)", mean, n)
	}
}

func TestMonitorFailuresExcludedFromLatency(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: 10 * time.Millisecond})
	// A slow failure must not drag the success latency stats.
	m.Record(Observation{Latency: 10 * time.Second, Err: errBoom})
	if got := m.MeanLatency(); got != 10*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 10ms (failure excluded)", got)
	}
}

func TestMonitorQuality(t *testing.T) {
	m := NewMonitor("svc")
	m.RecordQuality(0.8)
	m.RecordQuality(0.6)
	mean, n := m.MeanQuality()
	if n != 2 || mean != 0.7 {
		t.Errorf("MeanQuality = (%v, %d), want (0.7, 2)", mean, n)
	}
}

func TestWindowAvailability(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	m := NewMonitor("svc", WithClock(v))
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	v.Advance(time.Hour)
	m.Record(Observation{Latency: time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond})
	// Window covering only the recent successes.
	if got := m.WindowAvailability(30 * time.Minute); got != 1 {
		t.Errorf("WindowAvailability(30m) = %v, want 1", got)
	}
	// Window covering everything.
	if got := m.WindowAvailability(2 * time.Hour); got != 2.0/3.0 {
		t.Errorf("WindowAvailability(2h) = %v, want 2/3", got)
	}
	// Window covering nothing is optimistic.
	v.Advance(24 * time.Hour)
	if got := m.WindowAvailability(time.Minute); got != 1 {
		t.Errorf("empty WindowAvailability = %v, want 1", got)
	}
}

func TestWithRecentSize(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	m := NewMonitor("svc", WithClock(v), WithRecentSize(2))
	// An old failure followed by enough successes to push it out of the
	// 2-slot ring: the window query can no longer see it even though the
	// time window covers it.
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.Record(Observation{Latency: time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond})
	if got := m.WindowAvailability(time.Hour); got != 1 {
		t.Errorf("WindowAvailability = %v, want 1 after failure evicted", got)
	}

	// Non-positive sizes keep the default: of 5 000 records the window
	// sees the last 4 096. One failure is still among them after 4 999
	// records and gone after the 5 000th.
	d := NewMonitor("svc", WithClock(v), WithRecentSize(0))
	for i := 0; i < 5000-defaultRecentSize; i++ {
		d.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	}
	for i := 0; i < defaultRecentSize-1; i++ {
		d.Record(Observation{Latency: time.Millisecond})
	}
	if got, want := d.WindowAvailability(time.Hour), float64(defaultRecentSize-1)/defaultRecentSize; got != want {
		t.Errorf("WithRecentSize(0): WindowAvailability after 4999 records = %v, want %v", got, want)
	}
	d.Record(Observation{Latency: time.Millisecond})
	if got := d.WindowAvailability(time.Hour); got != 1 {
		t.Errorf("WithRecentSize(0): WindowAvailability after 5000 records = %v, want 1", got)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: 10 * time.Millisecond})
	m.Record(Observation{Latency: 30 * time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.RecordQuality(0.9)
	s := m.Snapshot()
	if s.Name != "svc" || s.Count != 3 || s.Failures != 1 {
		t.Errorf("Snapshot identity = %+v", s)
	}
	if s.MeanLatency != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 20ms", s.MeanLatency)
	}
	if s.MinLatency != 10*time.Millisecond || s.MaxLatency != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v, want 10ms/30ms", s.MinLatency, s.MaxLatency)
	}
	if s.Availability < 0.66 || s.Availability > 0.67 {
		t.Errorf("Availability = %v, want ~0.667", s.Availability)
	}
	if s.MeanQuality != 0.9 || s.QualityCount != 1 {
		t.Errorf("quality = (%v, %d), want (0.9, 1)", s.MeanQuality, s.QualityCount)
	}
	if s.P50Latency == 0 || s.P99Latency == 0 {
		t.Error("percentiles missing from snapshot")
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m := NewMonitor("svc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%10 == 0 {
					err = errBoom
				}
				m.Record(Observation{Latency: time.Duration(i) * time.Microsecond, Err: err, Params: []float64{float64(i)}})
				m.RecordQuality(0.5)
				_ = m.Availability()
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := m.Count(); got != 4000 {
		t.Errorf("Count = %d, want 4000", got)
	}
}

func TestRegistryLazyAndStable(t *testing.T) {
	r := NewRegistry()
	a := r.Monitor("a")
	if a2 := r.Monitor("a"); a2 != a {
		t.Error("Monitor returned a different instance for the same name")
	}
	r.Monitor("b")
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}

func TestRegistrySnapshots(t *testing.T) {
	r := NewRegistry()
	r.Monitor("z").Record(Observation{Latency: time.Millisecond})
	r.Monitor("a").Record(Observation{Latency: 2 * time.Millisecond})
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "z" {
		t.Errorf("Snapshots order wrong: %v", snaps)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g%4))
			for i := 0; i < 200; i++ {
				r.Monitor(name).Record(Observation{Latency: time.Microsecond})
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Names()); got != 4 {
		t.Errorf("registered %d services, want 4", got)
	}
	var total uint64
	for _, s := range r.Snapshots() {
		total += s.Count
	}
	if total != 3200 {
		t.Errorf("total observations = %d, want 3200", total)
	}
}

func TestRetriesAccumulateAttemptsBeyondFirst(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: time.Millisecond, Attempts: 1})
	m.Record(Observation{Latency: time.Millisecond, Attempts: 3})
	m.Record(Observation{Latency: time.Millisecond, Attempts: 0}) // clamped to one attempt
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom, Attempts: 2})
	if got := m.Retries(); got != 3 {
		t.Errorf("Retries() = %d, want 3", got)
	}
	if snap := m.Snapshot(); snap.Retries != 3 {
		t.Errorf("Snapshot().Retries = %d, want 3", snap.Retries)
	}
}
