package metrics

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
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
	// The median is the upper bound of the bucket holding 20ms.
	if got, want := m.Snapshot().P50Latency, time.Duration(bucketUpper(bucketIndex(int64(20*time.Millisecond)))); got != want {
		t.Errorf("P50 = %v, want %v", got, want)
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
	if mean, n := m.MeanQuality(); mean != 0 || n != 0 {
		t.Errorf("empty MeanQuality = (%v, %d), want (0, 0)", mean, n)
	}
	// No latency field reads the min/max sentinels before a success.
	m.Record(Observation{Latency: time.Second, Err: errBoom})
	if got, want := m.Snapshot(), (Snapshot{Name: "svc", Count: 1, Failures: 1}); got != want {
		t.Errorf("Snapshot after one failure = %+v, want %+v", got, want)
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

// TestMonitorConcurrentAccess: writers and readers share one monitor with
// no lock between them; once the writers stop, every total is exact.
func TestMonitorConcurrentAccess(t *testing.T) {
	const writers, perWriter = 8, 500
	obs := func(g, i int) Observation {
		o := Observation{Latency: time.Duration(i)*time.Microsecond + time.Duration(g), Attempts: 1 + i%3}
		if i%10 == 0 {
			o.Err = errBoom
		}
		return o
	}
	var retries, successes uint64
	var sum time.Duration
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			o := obs(g, i)
			retries += uint64(o.Attempts - 1)
			if o.Err == nil {
				successes++
				sum += o.Latency
			}
		}
	}

	m := NewMonitor("svc")
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.Record(obs(g, i))
				m.RecordQuality(0.5)
				_ = m.Availability()
				_ = m.MeanLatency()
				_, _ = m.MeanQuality()
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()

	s := m.Snapshot()
	if s.Count != writers*perWriter || m.Count() != s.Count {
		t.Errorf("Count = %d (Snapshot %d), want %d", m.Count(), s.Count, writers*perWriter)
	}
	if want := uint64(writers * perWriter / 10); s.Failures != want {
		t.Errorf("Failures = %d, want %d", s.Failures, want)
	}
	if s.Retries != retries || m.retries.Load() != retries {
		t.Errorf("Retries = %d (Snapshot %d), want %d", m.retries.Load(), s.Retries, retries)
	}
	if s.QualityCount != writers*perWriter || s.MeanQuality != 0.5 {
		t.Errorf("quality = (%v, %d), want (0.5, %d)", s.MeanQuality, s.QualityCount, writers*perWriter)
	}
	if d := m.hist.Snapshot(); d.Count != successes || d.Sum != sum {
		t.Errorf("distribution holds %d latencies summing to %v, want %d summing to %v", d.Count, d.Sum, successes, sum)
	}
	if want := sum / time.Duration(successes); s.MeanLatency != want {
		t.Errorf("MeanLatency = %v, want %v", s.MeanLatency, want)
	}
	if min, max := obs(0, 1).Latency, obs(writers-1, perWriter-1).Latency; s.MinLatency != min || s.MaxLatency != max {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.MinLatency, s.MaxLatency, min, max)
	}
}

// TestMonitorLatencyIsExactNanoseconds: latencies are kept in integer
// nanoseconds, so a sole success reads back as itself and a mean is the
// exact sum divided by the successes, truncated once.
func TestMonitorLatencyIsExactNanoseconds(t *testing.T) {
	sole := func(d time.Duration) {
		t.Helper()
		m := NewMonitor("svc")
		m.Record(Observation{Latency: d})
		if s := m.Snapshot(); s.MinLatency != d || s.MaxLatency != d || s.MeanLatency != d {
			t.Fatalf("sole success of %v reads back min %v, max %v, mean %v", d, s.MinLatency, s.MaxLatency, s.MeanLatency)
		}
	}
	sole(249 * time.Nanosecond)

	rng := rand.New(rand.NewSource(1))
	all := NewMonitor("svc")
	var sum time.Duration
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	const n = 10000
	for i := 0; i < n; i++ {
		d := time.Duration(1 + rng.Int63n(int64(2*time.Millisecond)))
		sole(d)
		all.Record(Observation{Latency: d})
		sum += d
		lo, hi = min(lo, d), max(hi, d)
	}
	s := all.Snapshot()
	if want := sum / n; s.MeanLatency != want || all.MeanLatency() != want {
		t.Errorf("MeanLatency = %v (accessor %v), want %v", s.MeanLatency, all.MeanLatency(), want)
	}
	if s.MinLatency != lo || s.MaxLatency != hi {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.MinLatency, s.MaxLatency, lo, hi)
	}
}

// TestMonitorRecordAllocs pins the lock-free path: recording a success or
// a failure, and the histogram observation under it, allocate nothing.
func TestMonitorRecordAllocs(t *testing.T) {
	m := NewMonitor("svc")
	ok := Observation{Latency: time.Millisecond, Params: []float64{1}, Attempts: 2}
	failed := Observation{Latency: time.Millisecond, Err: errBoom}
	if allocs := testing.AllocsPerRun(1000, func() { m.Record(ok) }); allocs != 0 {
		t.Errorf("Record(success) allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.Record(failed) }); allocs != 0 {
		t.Errorf("Record(failure) allocates %v per op, want 0", allocs)
	}
	h := NewHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", allocs)
	}
}

// allocatedBy reports the bytes fn allocates, by runtime.MemStats.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// keptMonitor holds the monitor a test or benchmark builds, as a Registry
// would, so it lives on the heap instead of the caller's stack.
var keptMonitor *Monitor

// TestMonitorCostFollowsWhatItRecorded: a monitor that lives for one
// pipeline run and sees ten observations costs its histogram (≈5 KB);
// monitors once carried a 4 096-slot ring and a 2 048-float sample beside
// it (≈190 KB).
func TestMonitorCostFollowsWhatItRecorded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not the product's under the race detector")
	}
	var snap Snapshot
	got := allocatedBy(func() {
		m := NewMonitor("stage")
		keptMonitor = m
		for i := 0; i < 10; i++ {
			m.Record(Observation{Latency: time.Duration(i+1) * time.Millisecond})
		}
		snap = m.Snapshot()
	})
	if snap.Count != 10 {
		t.Fatalf("Snapshot.Count = %d, want 10", snap.Count)
	}
	t.Logf("NewMonitor + 10 Records + Snapshot: %d bytes", got)
	if got >= 16<<10 {
		t.Errorf("NewMonitor + 10 Records + Snapshot allocated %d bytes, want < 16 KB", got)
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
	if got := m.retries.Load(); got != 3 {
		t.Errorf("Retries() = %d, want 3", got)
	}
	if snap := m.Snapshot(); snap.Retries != 3 {
		t.Errorf("Snapshot().Retries = %d, want 3", snap.Retries)
	}
}
