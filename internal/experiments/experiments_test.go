package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

// Shape assertions: each experiment must reproduce the paper claim's
// direction at reduced scale, not exact magnitudes.

const testScale = Scale(0.2)

func TestE1CachingShape(t *testing.T) {
	rows, table, err := RunE1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("too few rows")
	}
	noCache := rows[0]
	full := rows[len(rows)-1]
	if noCache.HitRatio != 0 {
		t.Errorf("no-cache hit ratio = %v", noCache.HitRatio)
	}
	if full.HitRatio < 0.5 {
		t.Errorf("full-cache hit ratio = %v, want > 0.5 (Zipf)", full.HitRatio)
	}
	if full.RemoteCalls >= noCache.RemoteCalls {
		t.Errorf("remote calls did not drop: %d -> %d", noCache.RemoteCalls, full.RemoteCalls)
	}
	if full.MeanLatency >= noCache.MeanLatency {
		t.Errorf("latency did not drop: %v -> %v", noCache.MeanLatency, full.MeanLatency)
	}
	// Hit ratio must grow monotonically with cache size.
	for i := 1; i < len(rows); i++ {
		if rows[i].HitRatio+1e-9 < rows[i-1].HitRatio {
			t.Errorf("hit ratio not monotone: %+v", rows)
		}
	}
	assertRenders(t, table)
}

func TestE2RankingShape(t *testing.T) {
	rows, table, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	// Single-factor weightings pick the obvious extremes under both
	// formulas.
	if rows[0].Eq1Winner != "fast-premium" || rows[0].Eq2Winner != "fast-premium" {
		t.Errorf("latency-only winner = %+v", rows[0])
	}
	if rows[1].Eq1Winner != "slow-budget" || rows[1].Eq2Winner != "slow-budget" {
		t.Errorf("cost-only winner = %+v", rows[1])
	}
	if rows[2].Eq1Winner != "balanced-quality" || rows[2].Eq2Winner != "balanced-quality" {
		t.Errorf("quality-only winner = %+v", rows[2])
	}
	assertRenders(t, table)
}

func TestE3FailoverShape(t *testing.T) {
	rows, table, err := RunE3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Retry+0.02 < r.Naive {
			t.Errorf("retry (%v) below naive (%v) at p=%v", r.Retry, r.Naive, r.FailRate)
		}
		if r.ChainFailover+0.02 < r.Retry {
			t.Errorf("chain (%v) below retry (%v) at p=%v", r.ChainFailover, r.Retry, r.FailRate)
		}
	}
	worst := rows[len(rows)-1]
	if worst.FailRate < 0.5 {
		t.Fatalf("sweep did not reach 50%%")
	}
	if worst.ChainFailover < 0.95 {
		t.Errorf("chain availability at 50%% failures = %v, want > 0.95", worst.ChainFailover)
	}
	if worst.Naive > 0.6 {
		t.Errorf("naive availability at 50%% failures = %v, want ~0.5", worst.Naive)
	}
	assertRenders(t, table)
}

func TestE4AsyncShape(t *testing.T) {
	rows, table, err := RunE4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	sync, async, par := rows[0].Elapsed, rows[1].Elapsed, rows[2].Elapsed
	if float64(async) > float64(sync)*0.7 {
		t.Errorf("async (%v) not meaningfully faster than sync (%v)", async, sync)
	}
	if float64(par) > float64(sync)*0.7 {
		t.Errorf("parallel (%v) not meaningfully faster than sync (%v)", par, sync)
	}
	assertRenders(t, table)
}

func TestE5PredictionShape(t *testing.T) {
	rows, table, err := RunE5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	var sawS1, sawS2 bool
	for _, r := range rows {
		if r.PredictChoice == r.OracleChoice {
			matches++
		}
		if r.OracleChoice == "store-s1" {
			sawS1 = true
		} else {
			sawS2 = true
		}
	}
	if !sawS1 || !sawS2 {
		t.Error("sweep does not cross the crossover")
	}
	if matches < len(rows)-1 {
		t.Errorf("prediction matched oracle on %d/%d sizes", matches, len(rows))
	}
	assertRenders(t, table)
}

func TestE6ConsensusShape(t *testing.T) {
	rows, table, err := RunE6(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E6Row{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	alpha, gamma, cons := byName["nlu-alpha"], byName["nlu-gamma"], byName["consensus>=2/3"]
	if alpha.PRF.F1 <= gamma.PRF.F1 {
		t.Errorf("alpha F1 %v should beat gamma %v", alpha.PRF.F1, gamma.PRF.F1)
	}
	if cons.PRF.Precision+0.02 < gamma.PRF.Precision {
		t.Errorf("consensus precision %v below noisy engine %v", cons.PRF.Precision, gamma.PRF.Precision)
	}
	if cons.PRF.F1+0.02 < gamma.PRF.F1 {
		t.Errorf("consensus F1 %v below noisiest engine %v", cons.PRF.F1, gamma.PRF.F1)
	}
	assertRenders(t, table)
}

func TestE7PersistShape(t *testing.T) {
	rows, table, err := RunE7(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Cached != 0 {
		t.Errorf("round 1 cached = %d", rows[0].Cached)
	}
	if rows[1].Invocations != 0 || rows[2].Invocations != 0 {
		t.Errorf("later rounds invoked the service: %+v", rows)
	}
	if rows[1].Cached == 0 {
		t.Error("round 2 served nothing from the store")
	}
	for _, r := range rows {
		if r.QuotaDenied != 0 {
			t.Errorf("quota denied %d analyses in round %d (store should prevent this)", r.QuotaDenied, r.Round)
		}
	}
	assertRenders(t, table)
}

func TestE8InferenceShape(t *testing.T) {
	rows, table, err := RunE8(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		// Chain of n has n-1 base subclass facts + 1 type fact; closure
		// adds (n-1)(n-2)/2 subclass facts + n-1 type facts.
		n := r.ChainLength
		wantDerived := (n-1)*(n-2)/2 + (n - 1)
		if r.Derived != wantDerived {
			t.Errorf("chain %d derived %d, want %d", n, r.Derived, wantDerived)
		}
		if i > 0 && r.Derived <= rows[i-1].Derived {
			t.Error("derived facts not growing with chain length")
		}
	}
	assertRenders(t, table)
}

func TestE9CodecShape(t *testing.T) {
	rows, table, err := RunE9(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]E9Row{}
	for _, r := range rows {
		byKey[r.Payload+"/"+r.Mode] = r
	}
	if byKey["text/gzip"].StoredBytes >= byKey["text/plain"].StoredBytes/3 {
		t.Errorf("gzip on text: %d vs %d plain", byKey["text/gzip"].StoredBytes, byKey["text/plain"].StoredBytes)
	}
	if byKey["random/gzip"].StoredBytes < byKey["random/plain"].StoredBytes {
		t.Error("random data should not compress")
	}
	aesOverhead := byKey["text/aes-gcm"].StoredBytes - byKey["text/plain"].StoredBytes
	if aesOverhead < 0 || aesOverhead > 64 {
		t.Errorf("aes overhead = %d bytes, want small constant", aesOverhead)
	}
	if byKey["text/gzip+aes"].StoredBytes >= byKey["text/plain"].StoredBytes/3 {
		t.Error("gzip+aes should stay compressed (compress before encrypt)")
	}
	assertRenders(t, table)
}

func TestE10LocalRemoteShape(t *testing.T) {
	rows, table, err := RunE10(testScale)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := rows[0], rows[1]
	// The full-scale gap is ~40x; assert a conservative 2x so parallel
	// package execution on loaded CI machines cannot flake the shape.
	if local.PerCall*2 > remote.PerCall {
		t.Errorf("local (%v) should be >2x faster than remote (%v)", local.PerCall, remote.PerCall)
	}
	if local.Cost != 0 || remote.Cost <= 0 {
		t.Errorf("costs = %v / %v", local.Cost, remote.Cost)
	}
	assertRenders(t, table)
}

func TestE11OfflineSyncShape(t *testing.T) {
	rows, table, err := RunE11(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Lost != 0 {
			t.Errorf("lost %d writes at %d offline writes", r.Lost, r.OfflineWrites)
		}
		if r.OfflineReads == 0 {
			t.Error("offline reads all failed despite local mirror")
		}
		if r.SyncedOps > r.OfflineWrites {
			t.Errorf("synced %d > written %d", r.SyncedOps, r.OfflineWrites)
		}
	}
	assertRenders(t, table)
}

func TestE12ConvertShape(t *testing.T) {
	rows, table, err := RunE12(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.LossLess {
			t.Errorf("conversion at %d rows lost data", r.Rows)
		}
		if r.Statements != 2*r.Rows {
			t.Errorf("statements = %d, want %d", r.Statements, 2*r.Rows)
		}
	}
	assertRenders(t, table)
}

func TestE13DisambigShape(t *testing.T) {
	rows, table, err := RunE13(testScale)
	if err != nil {
		t.Fatal(err)
	}
	raw, canon := rows[0], rows[1]
	if raw.Distinct <= raw.TrueCount {
		t.Errorf("raw ingestion should proliferate: %d distinct for %d true", raw.Distinct, raw.TrueCount)
	}
	if canon.Distinct != canon.TrueCount {
		t.Errorf("disambiguated distinct = %d, want %d", canon.Distinct, canon.TrueCount)
	}
	assertRenders(t, table)
}

func TestE14RedundancyShape(t *testing.T) {
	rows, table, err := RunE14(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ReadsOK != rows[0].Reads {
		t.Errorf("healthy reads = %d/%d", rows[0].ReadsOK, rows[0].Reads)
	}
	if rows[1].ReadsOK != rows[1].Reads || rows[2].ReadsOK != rows[2].Reads {
		t.Errorf("reads under partial failure should all succeed: %+v", rows)
	}
	if rows[3].ReadsOK != 0 {
		t.Errorf("total outage still served %d reads", rows[3].ReadsOK)
	}
	assertRenders(t, table)
}

func TestA1CacheAblationShape(t *testing.T) {
	rows, table, err := RunA1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	flight, naive, ttl := rows[0], rows[1], rows[2]
	if flight.BackendCalls >= naive.BackendCalls {
		t.Errorf("single-flight calls %d >= naive %d", flight.BackendCalls, naive.BackendCalls)
	}
	if ttl.BackendCalls <= flight.BackendCalls {
		t.Errorf("1ns TTL (%d) should refill more often than no-TTL single-flight (%d)", ttl.BackendCalls, flight.BackendCalls)
	}
	assertRenders(t, table)
}

func TestA2ScoreAblationShape(t *testing.T) {
	rows, table, err := RunA2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]A2Row{}
	for _, r := range rows {
		byName[r.Scorer] = r
	}
	if byName["eq2-normalized"].MeanRegret > byName["eq1-weighted"].MeanRegret {
		t.Errorf("eq2 regret %v above eq1 %v under imbalanced scales", byName["eq2-normalized"].MeanRegret, byName["eq1-weighted"].MeanRegret)
	}
	if byName["eq2-normalized"].WinnerMatch < 0.99 {
		t.Errorf("eq2 should match the scale-free utility: %v", byName["eq2-normalized"].WinnerMatch)
	}
	assertRenders(t, table)
}

func TestA3PredictAblationShape(t *testing.T) {
	rows, table, err := RunA3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Shape+"/"+r.Predictor] = r.MAEms
	}
	if byKey["linear/regression"] > byKey["linear/knn-3"] {
		t.Errorf("regression MAE %v above knn %v on linear latency", byKey["linear/regression"], byKey["linear/knn-3"])
	}
	// Neighbours must beat a constant on both shapes; a knn-3 row that
	// merely equals own-mean is not running k-NN.
	for _, shape := range []string{"linear", "quadratic"} {
		if knn, mean := byKey[shape+"/knn-3"], byKey[shape+"/own-mean"]; knn >= mean {
			t.Errorf("%s: knn-3 MAE %v not below own-mean MAE %v", shape, knn, mean)
		}
	}
	assertRenders(t, table)
}

func TestA4ChainAblationShape(t *testing.T) {
	rows, table, err := RunA4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	forward, backward := rows[0], rows[1]
	if backward.Facts >= forward.Facts {
		t.Errorf("backward materialized %d facts vs forward %d", backward.Facts, forward.Facts)
	}
	assertRenders(t, table)
}

func TestE15VisionShape(t *testing.T) {
	rows, table, err := RunE15(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E15Row{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	sharp, fast := byName["vision-sharp"], byName["vision-fast"]
	inter, uni := byName["intersection"], byName["union"]
	if sharp.PRF.F1 <= fast.PRF.F1 {
		t.Errorf("sharp F1 %v should beat fast %v", sharp.PRF.F1, fast.PRF.F1)
	}
	if inter.PRF.Precision+1e-9 < fast.PRF.Precision {
		t.Errorf("intersection precision %v below fast %v", inter.PRF.Precision, fast.PRF.Precision)
	}
	if uni.PRF.Recall+1e-9 < sharp.PRF.Recall {
		t.Errorf("union recall %v below sharp %v", uni.PRF.Recall, sharp.PRF.Recall)
	}
	assertRenders(t, table)
}

func TestE16PipelineShape(t *testing.T) {
	rows, table, err := RunE16(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %+v, want 4 cold widths + 1 warm repeat", rows)
	}
	for i, r := range rows {
		if r.Docs == 0 {
			t.Fatalf("row %d processed no documents: %+v", i, r)
		}
		if r.Docs != rows[0].Docs {
			t.Errorf("row %d processed %d docs, row 0 processed %d", i, r.Docs, rows[0].Docs)
		}
	}
	// Acceptance: with 4ms-latency services, 8 workers must beat 1 worker
	// by well over the 2.5x floor (the latency dominates scheduling and
	// race-detector overhead).
	eight := rows[3]
	if eight.Workers != 8 || eight.Speedup < 2.5 {
		t.Errorf("8-worker speedup = %.2fx, want >= 2.5x (%+v)", eight.Speedup, eight)
	}
	// Cold rows invoke the backend once per doc; nothing is cached yet.
	for _, r := range rows[:4] {
		if r.ServiceCalls != int64(r.Docs) {
			t.Errorf("%s: %d service calls for %d docs", r.Label, r.ServiceCalls, r.Docs)
		}
	}
	// The warm repeat is answered from the SDK response cache.
	warm := rows[4]
	if warm.ServiceCalls != 0 {
		t.Errorf("warm repeat made %d service calls, want 0", warm.ServiceCalls)
	}
	if warm.CacheHits == 0 {
		t.Error("warm repeat recorded no cache hits")
	}
	assertRenders(t, table)
}

func TestE17InferenceScalingShape(t *testing.T) {
	rows, table, err := RunE17(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string][]E17Row{}
	for _, r := range rows {
		byCase[r.Case] = append(byCase[r.Case], r)
	}
	naive, semi := byCase["chain/naive"], byCase["chain/semi-naive"]
	if len(naive) < 2 || len(semi) <= len(naive) {
		t.Fatalf("chain rows = %d naive / %d semi, want semi to cover more sizes", len(naive), len(semi))
	}
	for i, nr := range naive {
		sr := semi[i]
		if nr.N != sr.N || nr.Facts != sr.Facts {
			t.Errorf("engines disagree at row %d: %+v vs %+v", i, nr, sr)
		}
		// A linear chain of n nodes closes to C(n,2) reaches facts.
		if want := nr.N * (nr.N - 1) / 2; nr.Facts != want {
			t.Errorf("chain %d derived %d facts, want %d", nr.N, nr.Facts, want)
		}
		// Semi-naive derives each fact exactly once on the linear rule
		// set; naive re-derives the closure every round.
		if sr.Derivations != sr.Facts {
			t.Errorf("chain %d: semi-naive fired %d rules for %d facts", sr.N, sr.Derivations, sr.Facts)
		}
		if nr.Derivations <= sr.Derivations {
			t.Errorf("chain %d: naive fired %d rules, semi-naive %d — no re-derivation saved", nr.N, nr.Derivations, sr.Derivations)
		}
	}
	for _, c := range []string{"join/baseline-worst-order", "join/baseline-best-order", "join/planner-worst-order"} {
		jr := byCase[c]
		if len(jr) != 1 {
			t.Fatalf("join case %s has %d rows", c, len(jr))
		}
		if jr[0].Facts == 0 || jr[0].Facts != byCase["join/baseline-worst-order"][0].Facts {
			t.Errorf("join case %s returned %d rows", c, jr[0].Facts)
		}
	}
	assertRenders(t, table)
}

func TestRegistryComplete(t *testing.T) {
	entries := All()
	if len(entries) != 26 {
		t.Errorf("registry has %d entries, want 26 (E1-E22 + A1-A4)", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("incomplete entry %+v", e)
		}
	}
	if _, err := Find("E8"); err != nil {
		t.Error(err)
	}
	if _, err := Find("E99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func assertRenders(t *testing.T, table Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := table.Write(&buf); err != nil {
		t.Fatalf("table render: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, table.ID) || len(table.Rows) == 0 {
		t.Errorf("table %s rendered badly:\n%s", table.ID, out)
	}
}

func TestE18SearchScalingShape(t *testing.T) {
	rows, table, err := RunE18(Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	assertRenders(t, table)
	byCase := map[string][]E18Row{}
	for _, r := range rows {
		byCase[r.Case] = append(byCase[r.Case], r)
	}
	base, pruned := byCase["baseline/full-scan"], byCase["pruned/block-max"]
	if len(base) != 3 || len(pruned) != 3 || len(byCase["pruned/block-max+expand"]) != 3 {
		t.Fatalf("row counts per case = %d/%d/%d, want 3 sizes each",
			len(base), len(pruned), len(byCase["pruned/block-max+expand"]))
	}
	for i := range pruned {
		if pruned[i].Docs != base[i].Docs {
			t.Fatalf("size mismatch at row %d", i)
		}
		if pruned[i].Scored == 0 {
			t.Errorf("docs=%d: evaluator scored no candidates", pruned[i].Docs)
		}
		if pruned[i].Pruned+pruned[i].BlockSkips == 0 {
			t.Errorf("docs=%d: no candidates pruned — bound checks are dead", pruned[i].Docs)
		}
	}
	// RunE18 itself fails if rankings ever disagree; here only sanity on
	// the speedup direction at the largest size (timing, so lenient).
	last := len(pruned) - 1
	if pruned[last].Speedup < 1 {
		t.Logf("warning: pruned engine slower than baseline at docs=%d (speedup %.2f)",
			pruned[last].Docs, pruned[last].Speedup)
	}
}

func TestE20InstrumentCostShape(t *testing.T) {
	rows, table, err := RunE20(Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	assertRenders(t, table)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 instruments x 2 modes)", len(rows))
	}
	modes := map[string]int{}
	for _, r := range rows {
		modes[r.Mode]++
		if r.Ops == 0 {
			t.Errorf("%s/%s ran zero ops", r.Instrument, r.Mode)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s/%s ns_per_op = %v", r.Instrument, r.Mode, r.NsPerOp)
		}
		// The whole point: instruments never allocate on the hot path.
		// Background goroutines can smear ReadMemStats deltas slightly,
		// so allow a tiny epsilon rather than demanding exactly zero.
		if r.AllocsPerOp > 0.01 {
			t.Errorf("%s/%s allocs_per_op = %v, want ~0", r.Instrument, r.Mode, r.AllocsPerOp)
		}
	}
	if modes["uncontended"] != 3 || modes["contended"] != 3 {
		t.Errorf("mode coverage = %v, want 3 each", modes)
	}
}

func TestE21ChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 runs multi-second real-time load phases")
	}
	unshed, shed, table, err := RunE21(testScale)
	if err != nil {
		t.Fatal(err)
	}
	assertRenders(t, table)
	if len(table.Rows) != 6 {
		t.Fatalf("got %d rows, want 2 configs x 3 phases", len(table.Rows))
	}
	// Both configs must carry real load in every phase.
	for _, cfg := range []E21Config{unshed, shed} {
		for _, p := range []E21Phase{cfg.Pre, cfg.Storm, cfg.Post} {
			if p.Report.Sent == 0 {
				t.Fatalf("shed=%v phase %s sent nothing", cfg.Shed, p.Name)
			}
		}
	}
	// Shedding engaged during the storm regardless of timing conditions.
	if shed.Storm.Report.Shed == 0 {
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
	if unshed.Pre.Report.OKRate() < 0.9 || shed.Pre.Report.OKRate() < 0.9 {
		t.Errorf("pre-storm ok-rate unhealthy: unshed %.2f, shed %.2f",
			unshed.Pre.Report.OKRate(), shed.Pre.Report.OKRate())
	}
	// The tentpole claim: under the same seeded storm at saturation, the
	// shed config's goodput materially beats the unshed baseline (~4x at
	// full scale, `make bench-chaos`). At this scale the storm is ~800ms
	// of goroutines racing in real time, and on 2 cores the ratio lands
	// either side of any threshold, so it is logged, not asserted, until
	// loadgen runs on the virtual clock (ROADMAP item 1).
	t.Logf("storm goodput: shed %d ok vs unshed %d ok", shed.Storm.Report.OK, unshed.Storm.Report.OK)
	// Shedding converts overload into fast 429s rather than timeouts.
	if shed.Storm.Report.Timeouts >= unshed.Storm.Report.Timeouts {
		t.Errorf("shed config timed out as much as unshed (%d vs %d)",
			shed.Storm.Report.Timeouts, unshed.Storm.Report.Timeouts)
	}
	// Admitted p99 stays bounded near the client budget during the storm.
	// Quantile interpolates to a bucket's upper bound, so give it half a
	// budget of slack for bucket granularity.
	if p99 := shed.Storm.Report.OKLatency.Quantile(0.99); p99 > e21Timeout+e21Timeout/2 {
		t.Errorf("shed storm p99(ok) = %v, want bounded near client budget %v", p99, e21Timeout)
	}
	// After the storm the shed facade recovers: healthy ok-rate and a p99
	// back in the same regime as pre-storm (generous 3x margin — this is
	// a recovery check, not a latency benchmark).
	if shed.Post.Report.OKRate() < 0.9 {
		t.Errorf("shed post-storm ok-rate = %.2f, want >= 0.9", shed.Post.Report.OKRate())
	}
	prep99 := shed.Pre.Report.OKLatency.Quantile(0.99)
	postp99 := shed.Post.Report.OKLatency.Quantile(0.99)
	if postp99 > 3*prep99 {
		t.Errorf("shed post-storm p99 %v did not recover near pre-storm %v", postp99, prep99)
	}
}

func TestE22CloudStoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("E22 drives real HTTP store nodes with injected latency")
	}
	rows, table, err := RunE22(testScale)
	if err != nil {
		t.Fatal(err)
	}
	assertRenders(t, table)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want node counts 1/2/4/8", len(rows))
	}
	for i, n := range []int{1, 2, 4, 8} {
		if rows[i].Nodes != n {
			t.Fatalf("row %d nodes = %d, want %d", i, rows[i].Nodes, n)
		}
		wantR := 2
		if n < 2 {
			wantR = 1
		}
		if rows[i].Replicas != wantR {
			t.Errorf("n=%d replicas = %d, want %d", n, rows[i].Replicas, wantR)
		}
		if rows[i].WriteRate <= 0 || rows[i].ReadRate <= 0 {
			t.Errorf("n=%d rates = (%v, %v), want positive", n, rows[i].WriteRate, rows[i].ReadRate)
		}
	}
	// The availability half of the claim is deterministic — replicas
	// cover every key, so a single kill must cost nothing at N >= 2.
	for _, r := range rows[1:] {
		if r.KillServed < 1.0 {
			t.Errorf("n=%d served %.0f%% of reads through the kill, want 100%%",
				r.Nodes, 100*r.KillServed)
		}
		if r.Failovers == 0 {
			t.Errorf("n=%d recorded no read failovers despite a dead node", r.Nodes)
		}
	}
	// The N=1 baseline must visibly lose its post-kill reads — if it
	// doesn't, the kill never happened and the N>=2 rows prove nothing.
	if rows[0].KillServed > 0.9 {
		t.Errorf("n=1 served %.0f%% with its only node killed mid-run, want a visible loss",
			100*rows[0].KillServed)
	}
	// The timing half (near-linear scaling) is a benchmark claim; assert
	// it only where timing is trustworthy.
	if raceflag.Enabled {
		t.Log("race detector on: skipping throughput-scaling legs")
		return
	}
	// Reads scale ~N (no replication cost): demand a real gain at 8
	// nodes, not the ideal 8x.
	if gain := rows[3].ReadRate / rows[0].ReadRate; gain < 2.0 {
		t.Errorf("8-node read gain = %.2fx, want >= 2x", gain)
	}
	// Writes scale ~N/R (ideal 4x at N=8, R=2).
	if gain := rows[3].WriteRate / rows[0].WriteRate; gain < 1.5 {
		t.Errorf("8-node write gain = %.2fx, want >= 1.5x", gain)
	}
}
