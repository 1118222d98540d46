package metrics

// A Monitor's ring and latency sample grow with what it records instead
// of being allocated at their bounds up front. These tests hold the lazy
// layout to the eager one it replaced: same answers from every accessor
// for the same observations, same bounds, a fraction of the bytes.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/raceflag"
	"repro/internal/stats"
)

// eagerMonitor is the layout NewMonitor used to build, kept here as the
// expectation: a reservoir over a PRNG seeded up front, and a ring
// allocated at its full size whose only bound is its capacity.
type eagerMonitor struct {
	history             *stats.Reservoir
	ewma                *stats.EWMA
	hist                *Histogram
	count, failures     uint64
	sumMS, minMS, maxMS float64
	recent              []timedObs
	rpos                int
}

func newEagerMonitor(historySize int, seed int64, ringSize int) *eagerMonitor {
	return &eagerMonitor{
		history: stats.NewReservoir(historySize, rand.New(rand.NewSource(seed)).Float64),
		ewma:    stats.NewEWMA(defaultEWMAAlpha),
		hist:    NewHistogram(),
		recent:  make([]timedObs, 0, ringSize),
	}
}

func (e *eagerMonitor) record(o Observation) {
	ms := float64(o.Latency) / float64(time.Millisecond)
	e.count++
	if o.Err != nil {
		e.failures++
	} else {
		e.hist.Observe(o.Latency)
		e.history.Observe(ms)
		e.ewma.Observe(ms)
		e.sumMS += ms
		if e.count-e.failures == 1 || ms < e.minMS {
			e.minMS = ms
		}
		if ms > e.maxMS {
			e.maxMS = ms
		}
	}
	obs := timedObs{at: o.At, latMS: ms, ok: o.Err == nil}
	if len(e.recent) < cap(e.recent) {
		e.recent = append(e.recent, obs)
	} else {
		e.recent[e.rpos] = obs
		e.rpos = (e.rpos + 1) % len(e.recent)
	}
}

func (e *eagerMonitor) snapshot(name string) Snapshot {
	succ := e.count - e.failures
	hs := e.hist.Snapshot()
	s := Snapshot{
		Name: name, Count: e.count, Failures: e.failures,
		Availability: float64(succ) / float64(e.count),
		EWMALatency:  time.Duration(e.ewma.Value() * float64(time.Millisecond)),
		MinLatency:   time.Duration(e.minMS * float64(time.Millisecond)),
		MaxLatency:   time.Duration(e.maxMS * float64(time.Millisecond)),
		P50Latency:   hs.Quantile(0.50), P95Latency: hs.Quantile(0.95), P99Latency: hs.Quantile(0.99),
	}
	if succ > 0 {
		s.MeanLatency = time.Duration(e.sumMS / float64(succ) * float64(time.Millisecond))
	}
	return s
}

func (e *eagerMonitor) windowAvailability(now time.Time, d time.Duration) float64 {
	cutoff := now.Add(-d)
	var total, ok int
	for _, o := range e.recent {
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

// observations is a seeded sequence on a virtual clock: latencies from
// 50 µs to 20 ms, one in seven a failure, 1 to 30 ms apart.
func observations(seed int64, n int, clk *clock.Virtual) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, n)
	for i := range out {
		clk.Advance(time.Duration(1+rng.Intn(30)) * time.Millisecond)
		out[i] = Observation{Latency: time.Duration(50+rng.Intn(20000)) * time.Microsecond, At: clk.Now()}
		if rng.Intn(7) == 0 {
			out[i].Err = errBoom
		}
	}
	return out
}

func TestMonitorLazyLayoutMatchesEager(t *testing.T) {
	cases := []struct {
		name                  string
		opts                  []Option
		historySize, ringSize int
		seed                  int64
	}{
		{"defaults", nil, defaultHistorySize, defaultRecentSize, 1},
		// Bounds that are not powers of two: growth by doubling must stop
		// at them, not past them.
		{"history=100,recent=1000", []Option{WithHistorySize(100), WithRecentSize(1000)}, 100, 1000, 100},
	}
	for _, tc := range cases {
		for _, n := range []int{10, 2048, 2049, 10000} {
			clk := clock.NewVirtual(time.Unix(1000, 0))
			m := NewMonitor("svc", append([]Option{WithClock(clk)}, tc.opts...)...)
			want := newEagerMonitor(tc.historySize, tc.seed, tc.ringSize)
			for _, o := range observations(int64(n), n, clk) {
				m.Record(o)
				want.record(o)
				if cap(m.recent) > tc.ringSize {
					t.Fatalf("%s, n=%d: ring holds room for %d observations, bound is %d", tc.name, n, cap(m.recent), tc.ringSize)
				}
			}
			if got, exp := m.Snapshot(), want.snapshot("svc"); got != exp {
				t.Errorf("%s, n=%d: Snapshot\n got %+v\nwant %+v", tc.name, n, got, exp)
			}
			if got, exp := m.LatencyHistory(), want.history.Sample(); !reflect.DeepEqual(got, exp) {
				t.Errorf("%s, n=%d: LatencyHistory differs (%d samples, eager layout has %d)", tc.name, n, len(got), len(exp))
			} else if len(got) > tc.historySize {
				t.Errorf("%s, n=%d: history holds %d samples, bound is %d", tc.name, n, len(got), tc.historySize)
			}
			p95, _ := stats.Percentile(want.history.Sample(), 95)
			if got, exp := m.PercentileLatency(95), time.Duration(p95*float64(time.Millisecond)); got != exp {
				t.Errorf("%s, n=%d: PercentileLatency(95) = %v, eager layout gives %v", tc.name, n, got, exp)
			}
			// A window inside the ring, one about as long as it, and one
			// that takes in everything the ring still holds.
			for _, d := range []time.Duration{time.Second, time.Minute, 24 * time.Hour} {
				if got, exp := m.WindowAvailability(d), want.windowAvailability(clk.Now(), d); got != exp {
					t.Errorf("%s, n=%d: WindowAvailability(%v) = %v, eager layout gives %v", tc.name, n, d, got, exp)
				}
			}
			if n >= tc.ringSize && len(m.recent) != tc.ringSize {
				t.Errorf("%s, n=%d: ring holds %d observations, want it full at %d", tc.name, n, len(m.recent), tc.ringSize)
			}
		}
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

// TestMonitorCostFollowsWhatItRecorded: a monitor that lives for one
// pipeline run and sees ten observations used to cost ≈190 KB (a 4 096-slot
// ring, a 2 048-float sample, a PRNG), most of it zeroed and never read.
func TestMonitorCostFollowsWhatItRecorded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not the product's under the race detector")
	}
	var snap Snapshot
	got := allocatedBy(func() {
		m := NewMonitor("stage")
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
