package docstore

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/nlu"
)

func newStore(t *testing.T) (*Store, *clock.Virtual) {
	t.Helper()
	v := clock.NewVirtual(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	s, err := New(t.TempDir(), v)
	if err != nil {
		t.Fatal(err)
	}
	return s, v
}

func sampleDocs() []SavedDoc {
	return []SavedDoc{
		{URL: "http://web.local/docs/doc-1", Title: "One", HTML: "<p>alpha</p>", Text: "alpha"},
		{URL: "http://web.local/docs/doc-2", Title: "Two", HTML: "<p>beta</p>", Text: "beta"},
	}
}

func TestSaveAndLoadSearch(t *testing.T) {
	s, _ := newStore(t)
	id, err := s.SaveSearch("acme earnings", "search-g", sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	saved, err := s.LoadSearch(id)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Query != "acme earnings" || saved.Engine != "search-g" || len(saved.Docs) != 2 {
		t.Errorf("saved = %+v", saved)
	}
	if saved.When.IsZero() {
		t.Error("timestamp not recorded")
	}
}

func TestSameQueryLaterIsDistinctSnapshot(t *testing.T) {
	s, v := newStore(t)
	id1, err := s.SaveSearch("q", "e", sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(time.Hour)
	id2, err := s.SaveSearch("q", "e", sampleDocs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("re-running a query overwrote the earlier snapshot")
	}
	s1, _ := s.LoadSearch(id1)
	s2, _ := s.LoadSearch(id2)
	if len(s1.Docs) != 2 || len(s2.Docs) != 1 {
		t.Errorf("snapshots corrupted: %d, %d docs", len(s1.Docs), len(s2.Docs))
	}
}

func TestTexts(t *testing.T) {
	s, _ := newStore(t)
	id, err := s.SaveSearch("q", "e", sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	saved, err := s.LoadSearch(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Docs) != 2 || saved.Docs[0].Text != "alpha" || saved.Docs[1].Text != "beta" {
		t.Errorf("texts = %+v", saved.Docs)
	}
}

func TestLoadSearchMissing(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.LoadSearch("nope"); err == nil {
		t.Error("expected error for missing search")
	}
}

func TestAnalysisRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	a := nlu.Analysis{Engine: "nlu-alpha", Sentiment: 0.4,
		Entities: []nlu.Mention{{EntityID: "country:us", Surface: "US", Kind: "Country"}}}
	if err := s.saveAnalysis("some document", "nlu-alpha", a); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.loadAnalysis("some document", "nlu-alpha")
	if err != nil || !ok {
		t.Fatalf("LoadAnalysis = (%v, %v)", ok, err)
	}
	if got.Sentiment != 0.4 || len(got.Entities) != 1 {
		t.Errorf("got = %+v", got)
	}
}

func TestLoadAnalysisMissingIsNotError(t *testing.T) {
	s, _ := newStore(t)
	_, ok, err := s.loadAnalysis("never analyzed", "nlu-alpha")
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if ok {
		t.Error("ok = true for missing analysis")
	}
}

func TestAnalysisKeyedByEngine(t *testing.T) {
	s, _ := newStore(t)
	if err := s.saveAnalysis("doc", "alpha", nlu.Analysis{Engine: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.loadAnalysis("doc", "beta"); ok {
		t.Error("analysis leaked across engines")
	}
}

func TestAnalyzeOnce(t *testing.T) {
	s, _ := newStore(t)
	calls := 0
	analyze := func(text string) (nlu.Analysis, error) {
		calls++
		return nlu.Analysis{Engine: "x", Sentiment: 0.9}, nil
	}
	a1, cached1, err := s.AnalyzeOnceE("document body", "x", analyze)
	if err != nil || cached1 {
		t.Fatalf("first = (%v, %v)", cached1, err)
	}
	a2, cached2, err := s.AnalyzeOnceE("document body", "x", analyze)
	if err != nil || !cached2 {
		t.Fatalf("second = (%v, %v), want cached", cached2, err)
	}
	if calls != 1 {
		t.Errorf("analyze ran %d times, want 1", calls)
	}
	if a1.Sentiment != a2.Sentiment {
		t.Error("cached analysis differs")
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.SaveSearch("persist", "e", sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.saveAnalysis("doc", "e", nlu.Analysis{Engine: "e"}); err != nil {
		t.Fatal(err)
	}
	s2, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadSearch(id); err != nil {
		t.Errorf("search lost across reopen: %v", err)
	}
	if _, ok, _ := s2.loadAnalysis("doc", "e"); !ok {
		t.Error("analysis lost across reopen")
	}
}

// TestAnalyzeOnceConcurrent pins the single-flight guarantee: N concurrent
// callers for the same cold (document, engine) key trigger exactly one
// analysis, and every caller but the winner observes cached=true.
func TestAnalyzeOnceConcurrent(t *testing.T) {
	s, _ := newStore(t)
	const callers = 16
	var calls atomic.Int32
	release := make(chan struct{})
	analyze := func(text string) (nlu.Analysis, error) {
		calls.Add(1)
		<-release // hold the flight open so every caller piles on
		return nlu.Analysis{Engine: "x", Sentiment: 0.5}, nil
	}

	var wg sync.WaitGroup
	var fresh atomic.Int32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cached, err := s.AnalyzeOnceE("contended doc", "x", analyze)
			if err != nil {
				errs <- err
				return
			}
			if !cached {
				fresh.Add(1)
			}
		}()
	}
	// Wait until at least one caller is inside the flight, then let it run.
	key := s.analysisPath("contended doc", "x")
	for s.flight.Waiters(key) < 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := calls.Load(); got != 1 {
		t.Errorf("analyze ran %d times under %d concurrent callers, want 1", got, callers)
	}
	if got := fresh.Load(); got != 1 {
		t.Errorf("%d callers saw cached=false, want exactly 1", got)
	}
}

// TestAnalyzeOnceEFailureNotStored checks that a failed analysis is not
// persisted, so the next call retries instead of loading a phantom result.
func TestAnalyzeOnceEFailureNotStored(t *testing.T) {
	s, _ := newStore(t)
	boom := errors.New("engine down")
	_, _, err := s.AnalyzeOnceE("doc", "x", func(string) (nlu.Analysis, error) {
		return nlu.Analysis{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	a, cached, err := s.AnalyzeOnceE("doc", "x", func(string) (nlu.Analysis, error) {
		return nlu.Analysis{Engine: "x", Sentiment: 1}, nil
	})
	if err != nil || cached {
		t.Fatalf("retry = (%v, %v), want fresh success", cached, err)
	}
	if a.Sentiment != 1 {
		t.Errorf("Sentiment = %v, want 1", a.Sentiment)
	}
}

// TestConcurrentSaveAnalysisOnePath: writers of one (document, engine)
// that race — two Stores over one directory, or callers outside
// AnalyzeOnceE's flight — must each land a whole file and leave no
// temporary file behind.
func TestConcurrentSaveAnalysisOnePath(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*Store, 2)
	for i := range stores {
		s, err := New(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	const writers = 64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := nlu.Analysis{Engine: "x", Sentiment: float64(i)}
			if err := stores[i%2].saveAnalysis("shared doc", "x", a); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	a, ok, err := stores[0].loadAnalysis("shared doc", "x")
	if err != nil || !ok || a.Engine != "x" {
		t.Fatalf("LoadAnalysis = (%+v, %v, %v), want one writer's analysis", a, ok, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "analyses"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("analyses/ holds %v, want the one analysis file", names)
	}
}
