// Command loadgen is the chaos/load harness CLI. It builds an in-process
// rig — a simulated cognitive backend behind the rich SDK's HTTP facade —
// and drives it with the loadgen package's closed- or open-loop arrival
// models while an optional seeded chaos schedule storms the backend. The
// run prints a classification report (goodput, shed, timeouts, status
// histogram, latency quantiles), so a single command answers "what does
// this facade do at N-times saturation under faults?".
//
// Everything runs in one process over httptest recorders: no sockets, no
// kernel noise, and full determinism for a given -seed, which is what makes
// -smoke usable as a CI gate.
//
// Usage:
//
//	loadgen -workers 256 -duration 3s -timeout 25ms -storm \
//	    -shed-target 10ms -shed-max-inflight 64
//	loadgen -arrival open -rate 4000 -workers 64 -duration 2s
//	loadgen -smoke    # short deterministic run; non-zero exit on failure
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/simsvc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		arrival  = flag.String("arrival", "closed", "arrival model: closed or open")
		workers  = flag.Int("workers", 64, "closed-loop workers / open-loop outstanding bound")
		rate     = flag.Float64("rate", 1000, "open-loop arrival rate, requests/second")
		duration = flag.Duration("duration", 2*time.Second, "run length")
		timeout  = flag.Duration("timeout", 25*time.Millisecond, "per-request client budget (0 disables)")
		pause    = flag.Duration("shed-pause", 2*time.Millisecond, "closed-loop worker pause after a 429 (0 spins)")
		seed     = flag.Int64("seed", 7, "seed for request generation and chaos scheduling")

		svcLatency  = flag.Duration("svc-latency", 2*time.Millisecond, "backend service time per call")
		svcCapacity = flag.Int("svc-capacity", 4, "backend parallelism (0 = unbounded)")

		storm  = flag.Bool("storm", false, "inject a seeded chaos schedule (5xx bursts, latency spikes, down-flaps)")
		storms = flag.Int("storms", 3, "fault storms per chaos type when -storm is set")

		shedTarget = flag.Duration("shed-target", 0, "admitted p99 target for the adaptive shed stage (0 disables)")
		shedMax    = flag.Int("shed-max-inflight", 64, "shed stage concurrency ceiling")

		smoke = flag.Bool("smoke", false, "short deterministic smoke run for CI; exits non-zero on failure")
	)
	flag.Parse()

	if *smoke {
		return runSmoke()
	}

	var model loadgen.Arrival
	switch *arrival {
	case "closed":
		model = loadgen.ClosedLoop
	case "open":
		model = loadgen.OpenLoop
	default:
		return fmt.Errorf("unknown -arrival %q (want closed or open)", *arrival)
	}

	svc, api, client, err := buildRig(*svcLatency, *svcCapacity, *seed, *shedTarget, *shedMax)
	if err != nil {
		return err
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *storm {
		sched := loadgen.RandomStorms(*seed, *duration, *storms, stormFaults(svc, *svcLatency))
		for _, ev := range sched.Events() {
			fmt.Printf("chaos: t=%-10v %s\n", ev.At.Round(time.Millisecond), ev.Name)
		}
		go sched.Play(ctx)
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Handler:    api,
		NewRequest: loadgen.InvokeRequest("cog-primary", 1.0),
		Arrival:    model,
		Workers:    *workers,
		Rate:       *rate,
		Duration:   *duration,
		Timeout:    *timeout,
		ShedPause:  *pause,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}
	printReport(rep, client)
	return nil
}

// buildRig assembles the in-process backend + facade: one simulated
// cognitive service with bounded parallelism behind a client configured
// with the full resilience chain (breaker, predicted deadlines, jittered
// retries, and — when target > 0 — the adaptive shed stage).
func buildRig(latency time.Duration, capacity int, seed int64, shedTarget time.Duration, shedMax int) (*simsvc.Service, http.Handler, *core.Client, error) {
	svc := simsvc.New(simsvc.Config{
		Info:     service.Info{Name: "cog-primary", Category: "cog"},
		Latency:  simsvc.Constant{D: latency},
		Capacity: capacity,
		Seed:     seed,
	})
	cfg := core.Config{
		Breaker:  core.BreakerConfig{Threshold: 8, Cooldown: 150 * time.Millisecond},
		Deadline: core.DeadlineConfig{Factor: 4, Floor: 15 * time.Millisecond, Cap: 50 * time.Millisecond},
		DefaultRetry: failover.RetryPolicy{
			MaxAttempts: 2,
			Backoff:     2 * time.Millisecond,
			Jitter:      failover.FullJitter,
		},
		Shed: core.ShedConfig{TargetP99: shedTarget, MaxInFlight: shedMax, MinInFlight: 2,
			Window: 25 * time.Millisecond},
	}
	client, err := core.NewClient(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := client.Register(svc); err != nil {
		client.Close()
		return nil, nil, nil, err
	}
	return svc, core.NewAPI(client), client, nil
}

// stormFaults is the -storm chaos vocabulary against the rig's backend:
// 70% failure bursts, latency spikes of 20 service times, and down-flaps.
func stormFaults(svc *simsvc.Service, latency time.Duration) []loadgen.Fault {
	return []loadgen.Fault{
		{Name: "failburst", On: func() { svc.SetFailRate(0.7) }, Off: func() { svc.SetFailRate(0) }},
		{Name: "latspike", On: func() { svc.SetExtraLatency(20 * latency) }, Off: func() { svc.SetExtraLatency(0) }},
		{Name: "flap", On: func() { svc.SetDown(true) }, Off: func() { svc.SetDown(false) }},
	}
}

func printReport(rep loadgen.Report, client *core.Client) {
	fmt.Printf("elapsed   %v\n", rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("sent      %d\n", rep.Sent)
	fmt.Printf("ok        %d (%.0f/s goodput, %.1f%% of sent)\n", rep.OK, rep.Goodput(), 100*rep.OKRate())
	fmt.Printf("shed      %d\n", rep.Shed)
	fmt.Printf("timeouts  %d\n", rep.Timeouts)
	fmt.Printf("dropped   %d\n", rep.Dropped)
	codes := make([]int, 0, len(rep.Status))
	for c := range rep.Status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Printf("status %d: %d\n", c, rep.Status[c])
	}
	if rep.OKLatency.Count > 0 {
		fmt.Printf("ok latency  p50 %v  p99 %v\n",
			rep.OKLatency.Quantile(0.50).Round(time.Microsecond),
			rep.OKLatency.Quantile(0.99).Round(time.Microsecond))
	}
	if sh := client.Shedder(); sh != nil {
		fmt.Printf("shed stage  limit %d, admitted %d, rejected %d\n",
			sh.Limit(), sh.Admitted(), sh.Rejected())
	}
}

// runSmoke is the CI gate: a short saturating closed-loop burst with the
// shed stage on. It fails if the rig produced no traffic, no goodput, or
// no shedding — i.e. if any piece of the harness stopped doing its job.
func runSmoke() error {
	svc, api, client, err := buildRig(2*time.Millisecond, 2, 42, 10*time.Millisecond, 16)
	if err != nil {
		return err
	}
	defer client.Close()
	_ = svc
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Handler:    api,
		NewRequest: loadgen.InvokeRequest("cog-primary", 1.0),
		Arrival:    loadgen.ClosedLoop,
		Workers:    64,
		Duration:   500 * time.Millisecond,
		Timeout:    25 * time.Millisecond,
		ShedPause:  time.Millisecond,
		Seed:       7,
	})
	if err != nil {
		return err
	}
	printReport(rep, client)
	switch {
	case rep.Sent == 0:
		return fmt.Errorf("smoke: no requests sent")
	case rep.OK == 0:
		return fmt.Errorf("smoke: zero goodput (sent %d)", rep.Sent)
	case rep.Shed == 0:
		return fmt.Errorf("smoke: 64 workers into a 2-wide backend shed nothing — admission control inactive")
	}
	fmt.Println("smoke: ok")
	return nil
}
