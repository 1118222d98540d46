package nlu

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/raceflag"
)

func TestInstrumentRecordsPerDocument(t *testing.T) {
	set := metrics.NewSet()
	Instrument(set)
	t.Cleanup(func() { Instrument(nil) })

	e := NewEngine(ProfileAlpha)
	docs := []string{
		"IBM Watson announced strong results. The market reacted well.",
		"Quuxly zorgleblat frobnicated wildly.", // mostly out-of-vocabulary
		"Energy prices fell sharply in Europe today.",
	}
	for _, d := range docs {
		e.Analyze(d)
	}

	hist := set.Histogram("richsdk_nlu_analyze_seconds", "")
	if got := hist.Snapshot().Count; got != uint64(len(docs)) {
		t.Errorf("analyze histogram count = %d, want %d", got, len(docs))
	}
	tokens := set.Counter("richsdk_nlu_tokens_total", "").Value()
	if tokens == 0 {
		t.Error("tokens counter stayed zero")
	}
	oov := set.Counter("richsdk_nlu_oov_tokens_total", "").Value()
	if oov == 0 {
		t.Error("OOV counter stayed zero despite nonsense document")
	}
	if oov >= tokens {
		t.Errorf("OOV %d >= tokens %d", oov, tokens)
	}
	gets := set.Counter("richsdk_nlu_scratch_gets_total", "").Value()
	allocs := set.Counter("richsdk_nlu_scratch_allocs_total", "").Value()
	if gets != uint64(len(docs)) {
		t.Errorf("scratch gets = %d, want %d", gets, len(docs))
	}
	if allocs > gets {
		t.Errorf("pool allocs %d > gets %d", allocs, gets)
	}
	gauge := set.Gauge("richsdk_intern_dict_size", "", metrics.Label{Name: "dict", Value: "nlu-vocab"})
	if got := gauge.Value(); got != int64(vocab().dict.Len()) {
		t.Errorf("vocab gauge = %d, want %d", got, vocab().dict.Len())
	}
}

func TestInstrumentNilDetaches(t *testing.T) {
	set := metrics.NewSet()
	Instrument(set)
	e := NewEngine(ProfileAlpha)
	e.Analyze("The market grew.")
	hist := set.Histogram("richsdk_nlu_analyze_seconds", "")
	if got := hist.Snapshot().Count; got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	Instrument(nil)
	e.Analyze("The market grew again.")
	if got := hist.Snapshot().Count; got != 1 {
		t.Errorf("detached engine still recorded: count = %d, want 1", got)
	}
}

// TestInstrumentedAnalyzeAllocs guards what process-wide instrumentation
// may cost: Analyze with Instrument(set) makes exactly the allocations of
// Analyze with Instrument(nil), and the instruments count every document.
// The wall-clock ratio is logged, not asserted; the benchmark measures the
// analysis path as nlu.analyze_us.
func TestInstrumentedAnalyzeAllocs(t *testing.T) {
	const doc = "Acme Corporation reported excellent quarterly earnings, and analysts " +
		"in Germany praised the remarkable growth of the technology market."
	const runs = 50
	e := NewEngine(ProfileAlpha)
	set := metrics.NewSet()
	t.Cleanup(func() { Instrument(nil) })
	analyze := func() { e.Analyze(doc) }

	// GC stays off so the scratch pool is not drained mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	Instrument(nil)
	plain := testing.AllocsPerRun(runs, analyze)
	Instrument(set)
	inst := testing.AllocsPerRun(runs, analyze)
	// The race detector makes sync.Pool drop items at random.
	if inst != plain && !raceflag.Enabled {
		t.Errorf("instrumented Analyze allocates %v per document, uninstrumented %v", inst, plain)
	}
	// AllocsPerRun calls its function once more than runs, to warm up.
	if got := set.Histogram("richsdk_nlu_analyze_seconds", "").Snapshot().Count; got != runs+1 {
		t.Errorf("analyze histogram count = %d, want %d", got, runs+1)
	}
	if got := set.Counter("richsdk_nlu_scratch_gets_total", "").Value(); got != runs+1 {
		t.Errorf("scratch gets = %d, want %d", got, runs+1)
	}
	if set.Counter("richsdk_nlu_tokens_total", "").Value() == 0 {
		t.Error("tokens counter stayed zero")
	}

	batch := func() time.Duration {
		start := time.Now()
		for i := 0; i < 400; i++ {
			analyze()
		}
		return time.Since(start)
	}
	ti := batch()
	Instrument(nil)
	tp := batch()
	t.Logf("400 analyses: instrumented %v, uninstrumented %v (%+.1f%%)", ti, tp, 100*(float64(ti)/float64(tp)-1))
}

// TestInstrumentedAnalysisIdentical pins that instrumentation never
// perturbs results: the same document analyzed with instruments attached
// and detached must be bit-identical (the property that keeps caching
// semantically sound).
func TestInstrumentedAnalysisIdentical(t *testing.T) {
	e := NewEngine(ProfileGamma) // noisiest profile: most random draws
	text := "IBM and Microsoft compete fiercely. Analysts expect growth! Prices rose."
	plain := e.Analyze(text)
	Instrument(metrics.NewSet())
	instrumented := e.Analyze(text)
	Instrument(nil)
	if !analysesEqual(plain, instrumented) {
		t.Errorf("instrumented analysis differs:\nplain: %+v\ninstrumented: %+v", plain, instrumented)
	}
}

func analysesEqual(a, b Analysis) bool {
	if a.Engine != b.Engine || a.Sentiment != b.Sentiment || a.Language != b.Language {
		return false
	}
	if len(a.Entities) != len(b.Entities) || len(a.Keywords) != len(b.Keywords) ||
		len(a.Concepts) != len(b.Concepts) || len(a.Relations) != len(b.Relations) {
		return false
	}
	for i := range a.Entities {
		if a.Entities[i] != b.Entities[i] {
			return false
		}
	}
	for i := range a.Keywords {
		if a.Keywords[i] != b.Keywords[i] {
			return false
		}
	}
	return true
}
