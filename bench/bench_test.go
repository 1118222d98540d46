package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

// A p99 is only worth reporting with ten samples beyond it: every workload's
// timed phase must be that long at the run length BENCHMARK.json fixes.
func TestEveryPhaseKeepsTenSamplesBeyondP99(t *testing.T) {
	for _, tc := range []struct{ n, beyond int }{{1000, 10}, {999, 9}, {1200, 12}, {100, 1}} {
		if got := samplesBeyond(tc.n, 99); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, 99) = %d, want %d", tc.n, got, tc.beyond)
		}
	}
	for _, w := range workloads {
		p := passConfig{w: w, sc: fullScale, seconds: 10, callers: defaultCallers}
		ops := p.opsPerCaller() * p.callerCount()
		if got := samplesBeyond(ops, 99); got < minBeyond {
			t.Errorf("%s: %d ops leave %d samples beyond the p99, want %d", w.Name, ops, got, minBeyond)
		}
	}
}

// One slow slice (a noisy neighbour) must not move the reported rate, which
// is the median over the slices; the percentiles are the whole phase's.
func TestSummarizeRateIsTheMedianSlice(t *testing.T) {
	const perSlice = 1000
	var samples []opSample
	now := int64(0)
	for s := 0; s < rateSlices; s++ {
		lat := int64(1000) // 1 µs per op
		if s == 2 {
			lat = 10000
		}
		for i := 0; i < perSlice; i++ {
			now += lat
			samples = append(samples, opSample{end: now, lat: lat})
		}
	}
	st := summarize(samples)
	if st.Slices != rateSlices || st.Ops != perSlice*rateSlices {
		t.Fatalf("summarize cut %d ops into %d slices", st.Ops, st.Slices)
	}
	if want := 1e6; st.OpsPerSec != want {
		t.Errorf("ops/s = %v, want the fast slices' %v", st.OpsPerSec, want)
	}
	if want := 0.001; st.P50ms != want {
		t.Errorf("p50 = %v ms, want %v", st.P50ms, want)
	}
	if want := 0.01; st.P99ms != want { // a fifth of the ops were slow
		t.Errorf("p99 = %v ms, want %v", st.P99ms, want)
	}
	if one := summarize(samples[:3]); one.Slices != 1 || one.Ops != 3 {
		t.Errorf("three ops were cut into %d slices", one.Slices)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// Self time subtracts the union of the children's intervals: two replicas
// written in parallel cover their overlap once, and a child that outlives
// its parent is clipped to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{layer: lOp, parent: -1, start: 0, end: 100},
		{layer: lStorePut, parent: 0, start: 10, end: 90},
		{layer: lNode, parent: 1, start: 20, end: 60}, // replica 1
		{layer: lNode, parent: 1, start: 40, end: 80}, // replica 2, overlapping
		{layer: lEncode, parent: 1, start: 10, end: 20},
		{layer: lNode, parent: 1, start: 85, end: 120},  // a late ack, clipped at 90
		{layer: lDecode, parent: 1, start: 50, end: 50}, // never ended: ignored
	}
	self := selfTimes(spans)
	want := []int64{20, 5, 40, 40, 10, 35, 0}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	rec := newRecorder(2, 8)
	root := rec.root(1, 41)
	child := root.child(lHTTP)
	got := rec.fromHeader(child.header())
	if got != child {
		t.Errorf("fromHeader(%q) = %+v, want %+v", child.header(), got, child)
	}
	for _, bad := range []string{"", "1.2", "x.0.0", "9.0.0"} {
		if ref := rec.fromHeader(bad); ref.rec != nil {
			t.Errorf("fromHeader(%q) = %+v, want the inert ref", bad, ref)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, metricName)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// BENCHMARK.json is the contract the driver reads; the code's own lists
// are what a run emits. They must say the same.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	var want []metricDef
	for _, d := range endToEnd {
		if d.Name != "failed_frac" { // 0 on a healthy run; the contract forbids such a metric
			want = append(want, d)
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, want) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%+v\nthe code\n%+v", contract.EndToEnd, want)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has\n%+v\nthe code\n%+v", contract.PerLayer, perLayer)
	}
	largest := 0.0
	for _, d := range want {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > largest {
			largest = d.Bound
		}
	}
	if want[0].Name != "setup_s" || want[0].Bound != largest {
		t.Errorf("setup_s must be listed with the largest bound")
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	f := resultFile{
		Env: environment{GitSHA: "abc", GoVersion: "go1.22", NumCPU: 2, GOMAXPROCS: 2, Callers: 2, WorkDir: "bench/out", Seed: 7, Seconds: 10,
			OpCounts: map[string]int{"invoke-hot": 200000}, TracedOpShare: "1/4"},
	}
	for i := 0; i < 3; i++ {
		f.Runs = append(f.Runs, map[string]workloadResult{"invoke-hot": {
			EndToEnd: passResult{Attempted: 10, StreamHash: "00ff", Ops: 10, Slices: 1,
				Metrics: map[string]metric{"ops_per_s": {float64(100 + i), "1/s"}, "failed_frac": {0, "ratio"}}},
			PerLayer: passResult{Attempted: 4, StreamHash: "00aa", Metrics: map[string]metric{"cache.hits": {4, "count"}}},
		}})
	}
	f.summarize()
	if q := f.Summary["invoke-hot"]["ops_per_s"]; q.Median != 101 || q.Q1 != 100 || q.Q3 != 102 || q.Unit != "1/s" {
		t.Errorf("summary of 100,101,102 = %+v", q)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, f) {
		t.Errorf("result file changed in a round trip:\n got %+v\nwant %+v", *got, f)
	}
}

func TestVerdicts(t *testing.T) {
	rate := metricDef{"ops_per_s", "1/s", "higher", 0.08}
	lat := metricDef{"op_p50_ms", "ms", "lower", 0.10}
	allocs := metricDef{"allocs_per_op", "count", "lower", 0.02}
	failed := metricDef{"failed_frac", "ratio", "lower", 0}
	tight := func(m float64) quartile { return quartile{Q1: m * 0.995, Median: m, Q3: m * 1.005} }
	for _, tc := range []struct {
		def        metricDef
		base, next quartile
		want       string
	}{
		{rate, tight(1000), tight(950), vSame},                                    // 5% lower, bound 8%
		{rate, tight(1000), tight(900), vWorse},                                   // 10% lower
		{rate, tight(1000), tight(2000), vSame},                                   // better
		{lat, tight(1), tight(1.2), vWorse},                                       // 20% higher, bound 10%
		{lat, tight(1), quartile{Q1: 0.9, Median: 1.2, Q3: 1.3}, vUnresolved},     // spread 33% hides it
		{allocs, tight(100), quartile{Q1: 98, Median: 100, Q3: 102}, vUnresolved}, // same median, spread 4% > 2%
		{failed, quartile{}, quartile{}, vSame},
		{failed, quartile{}, quartile{Median: 0.001, Q3: 0.002}, vWorse}, // any increase
	} {
		if got, _ := verdict(tc.def, tc.base, tc.next); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.def.Name, tc.base.Median, tc.next.Median, got, tc.want)
		}
	}

	// Half the rate is worse under any bound the contract allows.
	a := &resultFile{Summary: map[string]map[string]quartile{"store-mixed": {"ops_per_s": tight(1000), "op_p99_ms": tight(2)}}}
	b := &resultFile{Summary: map[string]map[string]quartile{"store-mixed": {"ops_per_s": tight(500), "op_p99_ms": tight(2)}}}
	var out bytes.Buffer
	if n := compare(&out, a, b); n != 1 {
		t.Errorf("compare found %d worse metrics, want 1:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "0.5000") || !strings.Contains(out.String(), vWorse) {
		t.Errorf("compare output lacks the ratio or the verdict:\n%s", out.String())
	}

	// A metric the base has and the other file lost counts like a worse one.
	delete(b.Summary["store-mixed"], "op_p99_ms")
	out.Reset()
	if n := compare(&out, a, b); n != 2 || !strings.Contains(out.String(), vMissing) {
		t.Errorf("compare found %d worse or missing metrics, want 2:\n%s", n, out.String())
	}
}

// Only runs that did the same work compare: a smoke file against a full
// run, or another seed, is refused before any verdict.
func TestSameSettings(t *testing.T) {
	base := environment{Seed: 1, Seconds: 10, Callers: 4, OpCounts: map[string]int{"invoke-hot": 200000}}
	same := base
	same.GitSHA, same.OpCounts = "another commit", map[string]int{"invoke-hot": 200000}
	if err := sameSettings(base, same); err != nil {
		t.Errorf("equal settings refused: %v", err)
	}
	for name, change := range map[string]func(*environment){
		"seed":      func(e *environment) { e.Seed = 2 },
		"seconds":   func(e *environment) { e.Seconds = 5 },
		"callers":   func(e *environment) { e.Callers = 2 },
		"smoke":     func(e *environment) { e.Smoke = true },
		"op counts": func(e *environment) { e.OpCounts = map[string]int{"invoke-hot": 2000} },
	} {
		other := base
		change(&other)
		if err := sameSettings(base, other); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("another %s: sameSettings = %v, want an error naming it", name, err)
		}
	}
}

func smokeConfig(t *testing.T, name string, seed int64) passConfig {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return passConfig{w: w, sc: smokeScale, seed: seed, seconds: 10, callers: 2, workDir: t.TempDir(), setups: 1}
}

// The smoke run is the whole benchmark at 1/100 of its op counts: every
// workload must pass its oracle and emit every metric of both passes.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		p := smokeConfig(t, w.Name, 1)
		e2e, err := runUntraced(p)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := runTraced(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range []passResult{e2e, layers} {
			if pr.Failed != 0 || pr.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed, first: %s", w.Name, pr.Failed, pr.Attempted, pr.FirstError)
			}
		}
		for _, d := range endToEnd {
			if m, ok := e2e.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or in another unit: %+v", w.Name, d.Name, d.Unit, m)
			}
		}
		for _, d := range perLayer {
			if m, ok := layers.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or in another unit: %+v", w.Name, d.Name, d.Unit, m)
			}
		}
		if len(e2e.Metrics) != len(endToEnd) || len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted, %d and %d declared", w.Name, len(e2e.Metrics), len(layers.Metrics), len(endToEnd), len(perLayer))
		}
		spans, err := filepath.Glob(filepath.Join(p.workDir, "spans-*.csv"))
		if err != nil || len(spans) != 1 {
			t.Errorf("%s: span dumps in the work directory: %v %v", w.Name, spans, err)
		}
	}
}

func TestSeedDrivesTheOpStream(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) string {
			pr, err := runUntraced(smokeConfig(t, w.Name, seed))
			if err != nil {
				t.Fatal(err)
			}
			return pr.StreamHash
		}
		a, again, b := hash(1), hash(1), hash(2)
		if a != again {
			t.Errorf("%s: seed 1 drew stream %s, then %s", w.Name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 drew the same stream %s", w.Name, a)
		}
	}
}

// With one caller the op stream, what is stored and what the knowledge base
// holds must repeat exactly between two runs on one seed. (How many NLU
// calls the SDK cache absorbs does not: the pipeline's workers race for it.)
func TestAnalyzeLoopCountsRepeatExactly(t *testing.T) {
	counts := func() map[string]float64 {
		pr, err := runTraced(smokeConfig(t, "analyze-loop", 3))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range []string{"search.calls", "kb.graph_triples", "remotestore.remote_puts", "rdf.derived", "kb.query_rows", "codec.bytes_in", "codec.bytes_out", "node.requests"} {
			out[name] = pr.Metrics[name].Value
		}
		return out
	}
	a, b := counts(), counts()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different counts:\n%v\n%v", a, b)
	}
	if a["search.calls"] == 0 || a["remotestore.remote_puts"] == 0 || a["kb.graph_triples"] == 0 {
		t.Errorf("the loop reached no search backend, no store node or no knowledge base: %v", a)
	}
	// Every run enters facts of its own, so inference has work in every op
	// and the query reads what it derived.
	if a["rdf.derived"] == 0 || a["kb.query_rows"] == 0 {
		t.Errorf("the timed phase derived or queried nothing: %v", a)
	}
}
