// Quickstart: register two NLU services with different latency and cost,
// invoke one through the rich SDK (with caching and retries), invoke the
// whole category with ranked failover, plug a custom middleware stage into
// the invocation pipeline, and inspect the monitoring data and traces the
// SDK collected along the way.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/nlu"
	"repro/internal/service"
	"repro/internal/simsvc"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A custom middleware stage: every invocation — cache hits included —
	// passes through it, like an http.RoundTripper wrapper, on every
	// service of the client (Config.Middleware).
	var pipelineCalls atomic.Int64
	audit := func(next core.Invoker) core.Invoker {
		return func(ctx context.Context, call *core.Call) (service.Response, error) {
			pipelineCalls.Add(1)
			return next(ctx, call)
		}
	}
	// Trace every invocation; each one becomes a retrievable span tree.
	tracer := trace.New()
	defer tracer.Close()

	client, err := core.NewClient(core.Config{
		CacheTTL:   time.Minute,
		Middleware: []core.Middleware{audit},
		Tracer:     tracer,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	// Two simulated NLU vendors: premium (slow, accurate, expensive) and
	// budget (fast, noisier, cheap). Both expose the same "nlu" category
	// so the SDK can rank and fail over between them.
	register := func(profile nlu.Profile, median time.Duration, cost float64, seed int64) error {
		engine := nlu.NewEngine(profile)
		info := service.Info{Name: profile.Name, Category: "nlu", CostPerCall: cost}
		sim := simsvc.New(simsvc.Config{
			Info:    info,
			Latency: simsvc.Lognormal{Median: median, Sigma: 0.3},
			Seed:    seed,
			Handler: engine.Service(info).Invoke,
		})
		return client.Register(sim,
			core.WithCacheable(), // analyses are deterministic: safe to cache
			core.WithRetry(failover.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}),
		)
	}
	if err := register(nlu.ProfileAlpha, 60*time.Millisecond, 0.004, 1); err != nil {
		return err
	}
	if err := register(nlu.ProfileGamma, 15*time.Millisecond, 0.0005, 2); err != nil {
		return err
	}

	doc := "Acme Corporation reported excellent quarterly earnings, and analysts " +
		"in Germany praised the remarkable growth of the technology market."
	ctx := context.Background()

	// 1. Direct synchronous invocation of a specific service.
	resp, err := client.Invoke(ctx, "nlu-alpha", service.Request{Op: "analyze", Text: doc})
	if err != nil {
		return err
	}
	analysis, err := nlu.DecodeAnalysis(resp)
	if err != nil {
		return err
	}
	fmt.Println("== direct invocation (nlu-alpha) ==")
	fmt.Printf("sentiment %.2f, entities %v\n", analysis.Sentiment, analysis.EntityIDs())

	// 2. The same request again: served from the response cache, no
	// remote call.
	start := time.Now()
	if _, err := client.Invoke(ctx, "nlu-alpha", service.Request{Op: "analyze", Text: doc}); err != nil {
		return err
	}
	fmt.Printf("repeat call took %v (cache hit ratio %.2f)\n",
		time.Since(start).Round(time.Microsecond), client.CacheStats().HitRatio())

	// 3. Asynchronous invocation with a ListenableFuture-style callback.
	fut := client.InvokeAsync(ctx, "nlu-gamma", service.Request{Op: "analyze", Text: doc})
	fut.Listen(func(resp service.Response, err error) {
		if err != nil {
			fmt.Println("async failed:", err)
			return
		}
		a, _ := nlu.DecodeAnalysis(resp)
		fmt.Printf("async callback: %s found %d entity mentions\n", a.Engine, len(a.Entities))
	})
	if _, err := fut.Get(); err != nil {
		return err
	}

	// 4. Category invocation: the SDK ranks both services (latency, cost,
	// quality collected so far) and tries them in order.
	resp, attempts, err := client.InvokeCategory(ctx, "nlu", service.Request{Op: "analyze", Text: "Globex Industries faces a lawsuit."})
	if err != nil {
		return err
	}
	a, _ := nlu.DecodeAnalysis(resp)
	fmt.Printf("category invocation answered by %s after %d service attempt(s)\n", a.Engine, len(attempts))

	// 5. What the SDK learned while we worked.
	fmt.Printf("custom middleware observed %d invocations through the pipeline\n", pipelineCalls.Load())
	fmt.Println("== collected monitoring data ==")
	for _, s := range client.Stats() {
		fmt.Printf("%-10s calls %-3d availability %.2f mean %v p95 %v\n",
			s.Name, s.Count, s.Availability,
			s.MeanLatency.Round(time.Millisecond), s.P95Latency.Round(time.Millisecond))
	}

	// 6. Every invocation above left a trace: a root span plus one child
	// per middleware stage it passed through. Print the oldest one — the
	// cold nlu-alpha call — as an indented tree.
	fmt.Println("== trace of the first invocation ==")
	traces := tracer.Traces()
	first := traces[len(traces)-1] // Traces() is newest-first
	full, _ := tracer.Trace(first.ID)
	printTrace(full)
	return nil
}

// printTrace renders a span tree depth-first with indentation, durations,
// and attributes — the plain-text equivalent of GET /v1/traces/{id}.
func printTrace(tr *trace.Trace) {
	children := map[int][]trace.SpanData{}
	var root trace.SpanData
	for _, s := range tr.Spans {
		if s.ParentID == 0 {
			root = s
			continue
		}
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var walk func(s trace.SpanData, depth int)
	walk = func(s trace.SpanData, depth int) {
		var attrs []string
		for _, a := range s.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		sort.Strings(attrs)
		fmt.Printf("%s%-12s %8.3fms  %s\n",
			strings.Repeat("  ", depth), s.Name, s.DurationMS, strings.Join(attrs, " "))
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}
