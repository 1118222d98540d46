package nlu_test

import (
	"bytes"
	"encoding/json"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/nlu"
	"repro/internal/nlu/nluref"
	"repro/internal/raceflag"
	"repro/internal/webcorpus"
)

// TestNLUShape is the tier-1 guard for the interned NLU hot path: on a
// generated corpus every Engine.Analyze output must be bit-identical to
// the frozen pre-interning engines in nluref — including the profiles
// whose drop/spurious/noise paths consume randomness — and the interned
// path must make >= 5x fewer steady-state heap allocations per document,
// and no more than 12. Throughput is logged, not asserted; the benchmark
// measures it as nlu.analyze_us.
func TestNLUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("NLU guard skipped in -short mode")
	}
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 19, NumDocs: 200})
	texts := make([]string, len(corpus.Docs))
	for i, d := range corpus.Docs {
		texts[i] = d.Body
	}
	engines := make([]*nlu.Engine, len(oracleProfiles))
	refs := make([]*nluref.Engine, len(oracleProfiles))
	for i, p := range oracleProfiles {
		engines[i], refs[i] = nlu.NewEngine(p.nu), nluref.NewEngine(p.ref)
	}

	// Correctness: bit-identical analyses on every document and profile.
	// This pass also warms the interned path's pooled scratch.
	for i, text := range texts {
		for j := range engines {
			got, err := json.Marshal(engines[j].Analyze(text))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(refs[j].Analyze(text))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("doc %d profile %s diverged\n got %s\nwant %s",
					i, oracleProfiles[j].nu.Name, got, want)
			}
		}
	}

	if raceflag.Enabled {
		t.Skip("allocation leg skipped: the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Allocations: steady state (scratch pool warm), averaged per
	// document across all three profiles. GC stays disabled so the pool
	// is not drained mid-measurement.
	sample := texts[:20]
	perDoc := func(run func(string)) float64 {
		return testing.AllocsPerRun(3, func() {
			for _, text := range sample {
				run(text)
			}
		}) / float64(3*len(sample))
	}
	newAllocs := perDoc(func(text string) {
		for _, e := range engines {
			e.Analyze(text)
		}
	})
	refAllocs := perDoc(func(text string) {
		for _, r := range refs {
			r.Analyze(text)
		}
	})
	if newAllocs*5 > refAllocs {
		t.Errorf("interned path allocates %.1f/doc vs reference %.1f/doc, want >= 5x reduction",
			newAllocs, refAllocs)
	}
	if newAllocs > 12 {
		t.Errorf("interned path steady state = %.1f allocs/doc, want <= 12 (pool or interning regression)", newAllocs)
	}

	timed := func(analyze func(int, string)) time.Duration {
		start := time.Now()
		for _, text := range texts {
			for j := range engines {
				analyze(j, text)
			}
		}
		return time.Since(start)
	}
	interned := timed(func(j int, text string) { engines[j].Analyze(text) })
	reference := timed(func(j int, text string) { refs[j].Analyze(text) })
	t.Logf("%d docs x 3 profiles: allocs/doc interned %.1f, reference %.1f (%.1fx); one pass interned %v, reference %v",
		len(texts), newAllocs, refAllocs, refAllocs/newAllocs, interned, reference)
}
