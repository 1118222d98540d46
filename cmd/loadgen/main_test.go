package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/raceflag"
)

// stormTimeout is the simulated user's patience in TestStormShedding:
// responses slower than this are wasted work.
const stormTimeout = 25 * time.Millisecond

// stormPhases is one configuration's pre-storm, storm and post-storm
// reports.
type stormPhases struct {
	pre, storm, post loadgen.Report
}

// runStorm drives one buildRig configuration (shedding at a 10 ms p99
// target, or off) closed-loop through three phases: 4 workers for 200 ms,
// 256 workers for 800 ms while a seeded schedule storms the 4-wide, 2 ms
// backend (its capacity is ~2000 req/s, so the storm runs far past
// saturation), and 4 workers for 400 ms after it. Both configurations see
// the same storm seed; the shed stage is the only variable.
func runStorm(t *testing.T, shed bool) stormPhases {
	t.Helper()
	var target time.Duration
	if shed {
		target = 10 * time.Millisecond
	}
	svc, api, client, err := buildRig(2*time.Millisecond, 4, 42, target, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	phase := func(workers int, dur time.Duration, chaos *loadgen.Schedule) loadgen.Report {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if chaos != nil {
			go chaos.Play(ctx)
		}
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Handler:    api,
			NewRequest: loadgen.InvokeRequest("cog-primary", 1.0), // all-unique texts: no cache absorption
			Arrival:    loadgen.ClosedLoop,
			Workers:    workers,
			Duration:   dur,
			Timeout:    stormTimeout,
			ShedPause:  2 * time.Millisecond,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Drain stragglers (requests keep their full budget past the
		// window) so phases don't bleed into each other.
		time.Sleep(2 * stormTimeout)
		return rep
	}
	const stormDur = 800 * time.Millisecond
	var out stormPhases
	out.pre = phase(4, 200*time.Millisecond, nil)
	out.storm = phase(256, stormDur, loadgen.RandomStorms(99, stormDur, 3, stormFaults(svc, 2*time.Millisecond)))
	// The schedule's off-events all land inside the horizon, but make
	// recovery unconditional before measuring it.
	svc.SetFailRate(0)
	svc.SetExtraLatency(0)
	svc.SetDown(false)
	out.post = phase(4, 400*time.Millisecond, nil)
	return out
}

// TestStormShedding is the chaos storm with adaptive load shedding: the
// same seeded fault storm at far past saturation, once without and once
// with the shed stage. Shedding engages, turns overload into fast 429s
// instead of timeouts, keeps admitted p99 near the client budget, and the
// shed facade recovers after the storm. `make bench-chaos` runs the same
// rig from the command line.
func TestStormShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second real-time load phases")
	}
	unshed, shed := runStorm(t, false), runStorm(t, true)
	// Both configs must carry real load in every phase.
	for _, cfg := range []struct {
		name string
		p    stormPhases
	}{{"unshed", unshed}, {"shed", shed}} {
		for _, ph := range []struct {
			name string
			rep  loadgen.Report
		}{{"pre-storm", cfg.p.pre}, {"storm", cfg.p.storm}, {"post-storm", cfg.p.post}} {
			if ph.rep.Sent == 0 {
				t.Fatalf("%s phase %s sent nothing", cfg.name, ph.name)
			}
		}
	}
	// Shedding engaged during the storm regardless of timing conditions.
	if shed.storm.Shed == 0 {
		t.Error("shed config rejected nothing during the storm")
	}
	// The remaining legs compare real-time goodput and latency across
	// configs; race-detector instrumentation multiplies the backend's
	// 2ms service time past the latency target and client budget, so the
	// comparison is meaningless there. Run plain `make test` for them.
	if raceflag.Enabled {
		t.Log("race detector on: skipping goodput/latency legs")
		return
	}
	// Calm phases are healthy for both configs.
	if unshed.pre.OKRate() < 0.9 || shed.pre.OKRate() < 0.9 {
		t.Errorf("pre-storm ok-rate unhealthy: unshed %.2f, shed %.2f", unshed.pre.OKRate(), shed.pre.OKRate())
	}
	// The goodput ratio (~4x at full scale, `make bench-chaos`) is ~800ms
	// of goroutines racing in real time here, and on 2 cores it lands
	// either side of any threshold, so it is logged, not asserted.
	t.Logf("storm goodput: shed %d ok vs unshed %d ok", shed.storm.OK, unshed.storm.OK)
	// Shedding converts overload into fast 429s rather than timeouts.
	if shed.storm.Timeouts >= unshed.storm.Timeouts {
		t.Errorf("shed config timed out as much as unshed (%d vs %d)", shed.storm.Timeouts, unshed.storm.Timeouts)
	}
	// Admitted p99 stays bounded near the client budget during the storm.
	// Quantile interpolates to a bucket's upper bound, so give it half a
	// budget of slack for bucket granularity.
	if p99 := shed.storm.OKLatency.Quantile(0.99); p99 > stormTimeout+stormTimeout/2 {
		t.Errorf("shed storm p99(ok) = %v, want bounded near client budget %v", p99, stormTimeout)
	}
	// After the storm the shed facade recovers: healthy ok-rate and a p99
	// back in the same regime as pre-storm (generous 3x margin — this is
	// a recovery check, not a latency benchmark).
	recovered := true
	if shed.post.OKRate() < 0.9 {
		t.Errorf("shed post-storm ok-rate = %.2f, want >= 0.9", shed.post.OKRate())
		recovered = false
	}
	prep99 := shed.pre.OKLatency.Quantile(0.99)
	postp99 := shed.post.OKLatency.Quantile(0.99)
	if postp99 > 3*prep99 {
		t.Errorf("shed post-storm p99 %v did not recover near pre-storm %v", postp99, prep99)
		recovered = false
	}
	if !recovered {
		for _, cfg := range []struct {
			name string
			p    stormPhases
		}{{"unshed", unshed}, {"shed", shed}} {
			t.Logf("%s: pre-storm %s; storm %s; post-storm %s", cfg.name, phaseCounts(cfg.p.pre), phaseCounts(cfg.p.storm), phaseCounts(cfg.p.post))
		}
	}
}

// phaseCounts is a phase's outcome counts: sent, ok, shed (429), timed out,
// and any other error.
func phaseCounts(r loadgen.Report) string {
	other := r.Sent - r.OK - r.Shed - r.Timeouts
	return fmt.Sprintf("sent %d, ok %d, 429 %d, timeout %d, other error %d", r.Sent, r.OK, r.Shed, r.Timeouts, other)
}
