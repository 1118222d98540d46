package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricDef is one named metric of the benchmark's contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the base's median it may worsen by; end-to-end only
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, from the untraced pass only. failed_frac is 0 on a
// healthy run, so BENCHMARK.json (whose metrics may never be 0) carries it
// as the attempted/failed counts of a run's last line instead.
//
// A bound holds for every workload. The three timed metrics get the widest
// bound the contract allows: on the 2-core box the benchmark was sized on,
// ten seeds of one workload spread (interquartile range over median) up to
// 5.5% in a quiet hour, but the box itself drifts by 10 to 15% over
// minutes (store-mixed ran 6 600 to 7 900 ops/s within a quarter of an
// hour on unchanged code), and a bound below that would reject noise. The
// counted metrics do not drift: allocs_per_op spread at most 3.3%,
// live_heap_mb 0.8%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"failed_frac", "ratio", "lower", 0},
	{"allocs_per_op", "count", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer lists the traced pass's metrics with the direction an
// optimisation would move them in. They carry no bound.
var perLayer = []metricDef{
	{Name: "core.facade_self_us", Unit: "us", Better: "lower"},
	{Name: "core.chain_self_us", Unit: "us", Better: "lower"},
	{Name: "core.rank_call_us_first", Unit: "us", Better: "lower"},
	{Name: "core.rank_call_us_last", Unit: "us", Better: "lower"},
	{Name: "core.failover_attempts", Unit: "count", Better: "lower"},
	{Name: "core.backend_calls", Unit: "count", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nlu.backend_us", Unit: "us", Better: "lower"},
	{Name: "nlu.calls", Unit: "count", Better: "lower"},
	{Name: "nlu.analyze_us", Unit: "us", Better: "lower"},
	{Name: "search.backend_us", Unit: "us", Better: "lower"},
	{Name: "search.calls", Unit: "count", Better: "lower"},
	{Name: "search.query_us", Unit: "us", Better: "lower"},
	{Name: "simsvc.overhead_us", Unit: "us", Better: "lower"},
	{Name: "metrics.record_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.record_contended_ns", Unit: "ns", Better: "lower"},
	{Name: "predict.call_us_last", Unit: "us", Better: "lower"},
	{Name: "pipeline.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.self_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.fetch_stage_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.analyze_stage_ms", Unit: "ms", Better: "lower"},
	{Name: "webcorpus.fetch_us", Unit: "us", Better: "lower"},
	{Name: "webcorpus.handler_us", Unit: "us", Better: "lower"},
	{Name: "webcorpus.extract_us", Unit: "us", Better: "lower"},
	{Name: "docstore.save_search_us", Unit: "us", Better: "lower"},
	{Name: "docstore.analyze_miss_us", Unit: "us", Better: "lower"},
	{Name: "docstore.analyze_hit_us", Unit: "us", Better: "lower"},
	{Name: "aggregate.call_us", Unit: "us", Better: "lower"},
	{Name: "kb.sink_us", Unit: "us", Better: "lower"},
	{Name: "kb.assert_us", Unit: "us", Better: "lower"},
	{Name: "kb.infer_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.query_us", Unit: "us", Better: "lower"},
	{Name: "kb.query_rows", Unit: "count", Better: "lower"},
	{Name: "kb.retire_us", Unit: "us", Better: "lower"},
	{Name: "kb.save_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.load_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.graph_triples", Unit: "count", Better: "lower"},
	{Name: "rdf.derived", Unit: "count", Better: "lower"},
	{Name: "remotestore.put_us", Unit: "us", Better: "lower"},
	{Name: "remotestore.get_us", Unit: "us", Better: "lower"},
	{Name: "remotestore.keys_ms", Unit: "ms", Better: "lower"},
	{Name: "remotestore.self_us", Unit: "us", Better: "lower"},
	{Name: "remotestore.client_cache_hits", Unit: "count", Better: "higher"},
	{Name: "remotestore.remote_gets", Unit: "count", Better: "lower"},
	{Name: "remotestore.remote_puts", Unit: "count", Better: "lower"},
	{Name: "remotestore.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "remotestore.read_failovers", Unit: "count", Better: "lower"},
	{Name: "remotestore.offline_writes", Unit: "count", Better: "lower"},
	{Name: "remotestore.dropped_writes", Unit: "count", Better: "lower"},
	{Name: "ring.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.encode_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_us", Unit: "us", Better: "lower"},
	{Name: "codec.bytes_in", Unit: "B", Better: "lower"},
	{Name: "codec.bytes_out", Unit: "B", Better: "lower"},
	{Name: "codec.ratio", Unit: "ratio", Better: "lower"},
	{Name: "node.requests", Unit: "count", Better: "lower"},
	{Name: "node.service_us", Unit: "us", Better: "lower"},
	{Name: "node.bytes_in", Unit: "B", Better: "lower"},
	{Name: "node.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "load.http_self_us", Unit: "us", Better: "lower"},
	{Name: "load.unattributed_frac", Unit: "ratio", Better: "lower"},
}

// environment is recorded with every result: numbers from different
// machines or settings are not comparable.
type environment struct {
	GitSHA        string         `json:"git_sha"`
	GoVersion     string         `json:"go_version"`
	NumCPU        int            `json:"nproc"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	Callers       int            `json:"callers"`
	WorkDir       string         `json:"work_dir"`
	Seed          int64          `json:"seed"`
	Seconds       int            `json:"seconds"`
	Smoke         bool           `json:"smoke"`
	OpCounts      map[string]int `json:"op_counts"`
	TracedOpShare string         `json:"traced_op_share"`
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout, or with go run
}

func describeEnvironment(p passConfig, smoke bool) environment {
	env := environment{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Callers: p.callers, WorkDir: p.workDir, Seed: p.seed, Seconds: p.seconds,
		Smoke: smoke, OpCounts: map[string]int{}, TracedOpShare: fmt.Sprintf("1/%d", tracedShare),
	}
	for _, w := range workloads {
		p.w = w
		env.OpCounts[w.Name] = p.opsPerCaller() * p.callerCount()
	}
	return env
}

// workloadResult holds both passes over one workload.
type workloadResult struct {
	EndToEnd passResult `json:"end_to_end"`
	PerLayer passResult `json:"per_layer"`
}

// quartile summarises one metric over a result file's runs.
type quartile struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env  environment                 `json:"env"`
	Runs []map[string]workloadResult `json:"runs"` // one entry per -runs repetition, keyed by workload
	// Summary is workload -> end-to-end metric -> quartiles over Runs.
	Summary map[string]map[string]quartile `json:"summary"`
}

func (f *resultFile) summarize() {
	f.Summary = map[string]map[string]quartile{}
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, run := range f.Runs {
				if m, ok := run[w.Name].EndToEnd.Metrics[d.Name]; ok {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			if f.Summary[w.Name] == nil {
				f.Summary[w.Name] = map[string]quartile{}
			}
			q1, q2, q3 := quartiles(vals)
			f.Summary[w.Name][d.Name] = quartile{q1, q2, q3, d.Unit}
		}
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printPass prints every metric of one pass by name and unit, in the order
// defs lists them.
func printPass(w io.Writer, workload string, defs []metricDef, pr passResult) {
	for _, d := range defs {
		m, ok := pr.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		switch d.Name {
		case "ops_per_s":
			note = fmt.Sprintf("  (median of %d slices of %d ops)", pr.Slices, pr.Ops/pr.Slices)
		case "op_p50_ms":
			note = fmt.Sprintf("  (%d samples)", pr.Ops)
		case "op_p99_ms":
			note = fmt.Sprintf("  (%d samples, %d beyond)", pr.Ops, samplesBeyond(pr.Ops, 99))
		}
		fmt.Fprintf(w, "%-14s %-30s %14.4f %-6s%s\n", workload, d.Name, m.Value, m.Unit, note)
	}
}

// verdicts of a comparison, per workload and end-to-end metric.
const (
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
	vMissing    = "missing" // the base has the metric, the other file does not
)

// sameSettings reports the first setting in which two result files differ
// that changes the work a run does: only runs over the same op streams and
// op counts can be compared.
func sameSettings(a, b environment) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d and %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("seconds %d and %d", a.Seconds, b.Seconds)
	case a.Callers != b.Callers:
		return fmt.Errorf("callers %d and %d", a.Callers, b.Callers)
	case a.Smoke != b.Smoke:
		return fmt.Errorf("smoke %v and %v", a.Smoke, b.Smoke)
	case !reflect.DeepEqual(a.OpCounts, b.OpCounts):
		return fmt.Errorf("op counts %v and %v", a.OpCounts, b.OpCounts)
	}
	return nil
}

// worsening is by how much of the base's median the new median is worse;
// negative when it is better.
func worsening(d metricDef, base, next float64) float64 {
	if base == 0 {
		if next == 0 {
			return 0
		}
		if (d.Better == "lower") == (next > 0) {
			return 1 // any increase of a metric whose base is 0, such as failed_frac
		}
		return -1
	}
	if d.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// verdict judges one metric: worse when the new median is worse than the
// base's by more than the bound; unresolved when either side's own spread
// (interquartile range over its median) exceeds the bound, because then
// the runs cannot tell a change of that size from noise.
func verdict(d metricDef, base, next quartile) (string, float64) {
	worse := worsening(d, base.Median, next.Median)
	spread := 0.0
	for _, q := range []quartile{base, next} {
		if s := ratio(q.Q3-q.Q1, q.Median); s > spread {
			spread = s
		}
	}
	switch {
	case spread > d.Bound && d.Bound > 0:
		return vUnresolved, worse
	case worse > d.Bound:
		return vWorse, worse
	}
	return vSame, worse
}

// compare prints, per workload and end-to-end metric, both medians, their
// ratio with a as its base, the bound and the verdict. It returns how many
// pairings came out worse or are missing from b.
func compare(w io.Writer, a, b *resultFile) int {
	worse := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	names := make([]string, 0, len(a.Summary))
	for name := range a.Summary {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range endToEnd {
			qa, ok := a.Summary[name][d.Name]
			if !ok {
				continue
			}
			qb, ok := b.Summary[name][d.Name]
			v := vMissing
			if ok {
				v, _ = verdict(d, qa, qb)
			}
			if v == vWorse || v == vMissing {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %9.4f %6.0f%%  %s\n", name, d.Name, qa.Median, qb.Median, ratio(qb.Median, qa.Median), d.Bound*100, v)
		}
	}
	return worse
}
