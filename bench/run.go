package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
)

// scale is how much data a rig holds and how op counts are divided. Only
// -smoke departs from fullScale.
type scale struct {
	Docs      int // corpus documents
	HotItems  int // invoke-hot's item set
	StoreKeys int // store-mixed's preloaded keys
	OpDiv     int // op counts are divided by this
}

var (
	fullScale  = scale{Docs: 20000, HotItems: 256, StoreKeys: 4096, OpDiv: 1}
	smokeScale = scale{Docs: 1000, HotItems: 256, StoreKeys: 256, OpDiv: 100}
)

// passConfig fixes everything one pass over one workload depends on.
type passConfig struct {
	w       workload
	sc      scale
	seed    int64
	seconds int // nominal: the op count is w.OpsPerSecond × seconds, not a duration
	callers int
	workDir string
	setups  int // set-up is repeated this often and its median reported
}

// defaultCallers is the closed-loop caller count of the multi-caller
// workloads, on any machine: the op streams are per caller, so a count that
// followed the core count would change the inputs with the machine. Four
// keep two cores busy; with two callers on two cores a core idles between
// a reply and the next request and the rate of one seed varied 2.7% run to
// run, with four 0.5%.
const defaultCallers = 4

// callerCount is how many closed-loop callers drive p.w.
func (p passConfig) callerCount() int {
	if p.w.SingleCaller {
		return 1
	}
	return p.callers
}

// opsPerCaller is the timed phase's op count per caller. The total is a
// function of the flags alone, never of how fast this commit runs.
func (p passConfig) opsPerCaller() int {
	n := p.w.OpsPerSecond * p.seconds / p.sc.OpDiv / p.callerCount()
	if n < 1 {
		n = 1
	}
	return n
}

// bound is a workload bound to a freshly set-up rig: preloaded, warmed up,
// callers ready to issue the timed phase's first op.
type bound struct {
	r        *rig
	callers  []caller
	rec      *recorder
	setupSec float64
	nextOp   int32 // op id the timed phase starts at (the warm-up used the ids below)
}

func (b *bound) close() {
	for _, c := range b.callers {
		c.close()
	}
	b.r.close()
}

// setUp builds the rig, preloads it and runs the untimed warm-up (a tenth
// of the timed op count per caller); setupSec covers all three. With
// perCaller > 0 a recorder sized for that many ops is installed.
func setUp(p passConfig, perCaller int, traced bool) (*bound, error) {
	t0 := time.Now()
	n := p.callerCount()
	warm := (perCaller + 9) / 10
	var rec *recorder
	if traced {
		rec = newRecorder(n, (perCaller+warm)*p.w.SpansPerOp)
	}
	r, err := buildRig(p.seed, p.sc, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: build rig: %w", p.w.Name, err)
	}
	b := &bound{r: r, rec: rec}
	inst, err := p.w.start(r, p.sc, p.seed, p.callers)
	if err == nil {
		err = inst.prepare()
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s: preload: %w", p.w.Name, err)
	}
	for c := 0; c < n; c++ {
		b.callers = append(b.callers, inst.caller(c))
	}
	if ph := b.runPhase(warm); ph.failed > 0 {
		b.close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d ops failed, first: %w", p.w.Name, ph.failed, warm*n, ph.firstErr)
	}
	b.setupSec = time.Since(t0).Seconds()
	return b, nil
}

// phase is what one run of ops over all callers measured.
type phase struct {
	samples  []opSample
	attempts int
	failed   int
	firstErr error
	firstOp  int32
	// process-wide deltas over the phase, load generator included
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	gcCycles   uint32
	liveHeap   uint64 // HeapAlloc after a forced GC at the end
}

// runPhase has every caller issue perCaller ops back to back, each waiting
// for its reply and checking it before the next (a closed loop). issue is
// timed; check runs between ops on the same cores, as an application's own
// use of the reply would.
func (b *bound) runPhase(perCaller int) phase {
	ph := phase{firstOp: b.nextOp, attempts: perCaller * len(b.callers)}
	perC := make([][]opSample, len(b.callers))
	failed := make([]int, len(b.callers))
	firstErr := make([]error, len(b.callers))
	for c := range perC {
		perC[c] = make([]opSample, 0, perCaller)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range b.callers {
		wg.Add(1)
		go func(c int, cl caller) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perCaller; i++ {
				opCtx, root := ctx, spanRef{}
				if b.rec != nil {
					root = b.rec.root(c, ph.firstOp+int32(i))
					opCtx = withSpan(ctx, root)
				}
				t0 := time.Now()
				err := cl.issue(opCtx)
				t1 := time.Now()
				root.end()
				perC[c] = append(perC[c], opSample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0))})
				if err == nil {
					err = cl.check()
				}
				if err != nil {
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				}
			}
		}(c, cl)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	ph.gcCycles = after.NumGC - before.NumGC
	for c := range perC {
		ph.samples = append(ph.samples, perC[c]...)
		ph.failed += failed[c]
		if ph.firstErr == nil {
			ph.firstErr = firstErr[c]
		}
	}
	perC = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.liveHeap = after.HeapAlloc
	b.nextOp += int32(perCaller)
	return ph
}

// streamHash folds the callers' op-stream hashes into one.
func (b *bound) streamHash() uint64 {
	h := uint64(fnvOffset)
	for _, c := range b.callers {
		h = (h ^ c.hash()) * fnvPrime
	}
	return h
}

// passResult is one pass over one workload, as it goes into the result
// file and onto the final line of a -workload run.
type passResult struct {
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	StreamHash string            `json:"stream_hash"`
	Ops        int               `json:"ops"`         // the sample count of the percentiles
	Slices     int               `json:"rate_slices"` // ops_per_s is the median over this many
	Metrics    map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits gives every value the unit its definition declares, so a unit
// is written down once. A value without a definition is a bug in the caller.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = metric{v, d.Unit}
		}
	}
	if len(out) != len(values) {
		panic(fmt.Sprintf("bench: %d metric values, %d of them declared", len(values), len(out)))
	}
	return out
}

func (pr *passResult) count(ph phase) {
	pr.Attempted += ph.attempts
	pr.Failed += ph.failed
	if pr.FirstError == "" && ph.firstErr != nil {
		pr.FirstError = ph.firstErr.Error()
	}
}

// runUntraced measures the end-to-end metrics: no wrapper is installed
// anywhere. Set-up is done p.setups times, each on a fresh rig, and the
// median reported; the timed phase runs on the last one.
func runUntraced(p passConfig) (passResult, error) {
	perCaller := p.opsPerCaller()
	var setups []float64
	var b *bound
	for i := 0; i < p.setups; i++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = setUp(p, perCaller, false); err != nil {
			return passResult{}, err
		}
		setups = append(setups, b.setupSec)
	}
	defer b.close()
	ph := b.runPhase(perCaller)
	st := summarize(ph.samples)
	pr := passResult{
		StreamHash: fmt.Sprintf("%016x", b.streamHash()),
		Ops:        st.Ops, Slices: st.Slices,
	}
	pr.count(ph)
	pr.Metrics = withUnits(endToEnd, map[string]float64{
		"setup_s":       stats.Median(setups),
		"ops_per_s":     st.OpsPerSec,
		"op_p50_ms":     st.P50ms,
		"op_p99_ms":     st.P99ms,
		"failed_frac":   float64(ph.failed) / float64(ph.attempts),
		"allocs_per_op": float64(ph.mallocs) / float64(ph.attempts),
		"live_heap_mb":  float64(ph.liveHeap) / (1 << 20),
	})
	runtime.KeepAlive(b)
	return pr, nil
}

// tracedShare is the part of the op count the traced pass runs, once
// without and once with the wrappers.
const tracedShare = 4

// runTraced measures the per-layer metrics. It runs a quarter of the op
// count twice on fresh rigs fed the same op stream: first untraced, as the
// reference for trace.overhead_frac, then with every wrapper installed.
// No end-to-end metric ever comes from here.
func runTraced(p passConfig) (passResult, error) {
	perCaller := (p.opsPerCaller() + tracedShare - 1) / tracedShare
	ref, err := setUp(p, perCaller, false)
	if err != nil {
		return passResult{}, err
	}
	refPhase := ref.runPhase(perCaller)
	refHash := ref.streamHash()
	ref.close()

	b, err := setUp(p, perCaller, true)
	if err != nil {
		return passResult{}, err
	}
	defer b.close()
	lp := newLayerProbe(p, b)
	ph := b.runPhase(perCaller)
	pr := passResult{StreamHash: fmt.Sprintf("%016x", b.streamHash())}
	pr.count(refPhase)
	pr.count(ph)
	if h := b.streamHash(); h != refHash && pr.FirstError == "" {
		pr.Failed++
		pr.FirstError = fmt.Sprintf("traced pass drew op stream %016x, its untraced reference %016x", h, refHash)
	}
	st := summarize(ph.samples)
	pr.Ops, pr.Slices = st.Ops, st.Slices
	pr.Metrics = withUnits(perLayer, lp.metrics(ph, st, summarize(refPhase.samples)))

	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return pr, err
	}
	path := filepath.Join(p.workDir, fmt.Sprintf("spans-%s-seed%d.csv", p.w.Name, p.seed))
	if err := b.rec.writeSpans(path); err != nil {
		return pr, fmt.Errorf("write spans: %w", err)
	}
	return pr, nil
}
