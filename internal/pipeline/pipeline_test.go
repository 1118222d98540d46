package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/nlu"
	"repro/internal/search"
	"repro/internal/service"
)

// stubRun is a run over n documents d0, d1, … whose stages the test
// decides document by document: fetch(ctx, i) runs inside the page
// transport when document i is fetched, analyze(ctx, i) inside the NLU
// service when it is analyzed, and a non-nil error from either fails
// that document in that stage. ctx is the run's, so a hook can wait for
// the run to be cancelled. Nil hooks succeed.
type stubRun struct {
	n       int
	fetch   func(ctx context.Context, i int) error
	analyze func(ctx context.Context, i int) error
}

// stubHTML is document i's page; its text is "d<i>".
func stubHTML(i int) string { return "<html><body>d" + strconv.Itoa(i) + "</body></html>" }

// config returns a Run configuration over s on a fresh SDK client: a
// search service that answers the n hits, one NLU service, and the page
// transport. The client holds no cache, so every document reaches the
// hooks.
func (s stubRun) config(t testing.TB) AnalysisConfig {
	t.Helper()
	client, err := core.NewClient(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	hits := search.Results{Engine: "search-stub", Results: make([]search.Result, s.n)}
	for i := range hits.Results {
		id := "d" + strconv.Itoa(i)
		hits.Results[i] = search.Result{DocID: id, URL: "u" + strconv.Itoa(i), Title: id}
	}
	body, err := json.Marshal(hits)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(service.Func{
		Meta: service.Info{Name: "search-stub", Category: "search"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: body}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := nlu.Analysis{Engine: "nlu-stub", Language: "en"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(service.Func{
		Meta: service.Info{Name: "nlu-stub", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			i, err := strconv.Atoi(strings.TrimPrefix(req.Text, "d"))
			if err != nil {
				return service.Response{}, fmt.Errorf("text %q names no document", req.Text)
			}
			if s.analyze != nil {
				if err := s.analyze(ctx, i); err != nil {
					return service.Response{}, err
				}
			}
			return reply, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return AnalysisConfig{
		Client: client, Search: "search-stub", NLU: []string{"nlu-stub"},
		FetchURL: "http://web.local", HTTPClient: &http.Client{Transport: stubTransport(s)},
		Limit: max(s.n, 1), Workers: 4,
	}
}

// docs returns the n documents as RunDocs takes them.
func (s stubRun) docs() []docstore.SavedDoc {
	docs := make([]docstore.SavedDoc, s.n)
	for i := range docs {
		docs[i] = docstore.SavedDoc{URL: "u" + strconv.Itoa(i), Text: "d" + strconv.Itoa(i)}
	}
	return docs
}

// stubTransport serves stubRun's pages in process.
type stubTransport stubRun

func (s stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(req.URL.Path, "/docs/d"))
	if err != nil || i < 0 || i >= s.n {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: req}, nil
	}
	if s.fetch != nil {
		if err := s.fetch(req.Context(), i); err != nil {
			return nil, err
		}
	}
	page := stubHTML(i)
	body := &pageBody{}
	body.Reset(page)
	return &http.Response{StatusCode: http.StatusOK, ContentLength: int64(len(page)), Body: body, Request: req}, nil
}

// docErr is the failure of one document in one stage.
type docErr struct {
	stage string
	i     int
}

func (e docErr) Error() string { return fmt.Sprintf("%s of d%d failed", e.stage, e.i) }

// watchdog fails the test if done is not closed within a minute: a gated
// test that deadlocks says so instead of hanging the suite.
func watchdog(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("run still blocked after a minute: a gate was never released")
	}
}

// runAsync runs fn on its own goroutine under watchdog.
func runAsync(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	watchdog(t, done)
}

// checkNoGoroutinesLeft fails the test unless the goroutine count is back
// at before. Every goroutine a run starts is joined before it returns, but
// one that has just called Done may still be unwinding, so the check
// yields to it first; a leaked goroutine never goes away.
func checkNoGoroutinesLeft(t testing.TB, before int, what string) {
	t.Helper()
	for range 10_000 {
		if runtime.NumGoroutine() <= before {
			break
		}
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%s: %d goroutines after the run, %d before", what, n, before)
	}
}

// TestSingleStagePreservesOrder: RunDocs' analyze workers finish in any
// order — here document 0 finishes last, after every other — and the
// documents still come back in index order.
func TestSingleStagePreservesOrder(t *testing.T) {
	const n = 20
	var finished atomic.Int32
	othersDone := make(chan struct{})
	s := stubRun{n: n, analyze: func(ctx context.Context, i int) error {
		if i == 0 {
			<-othersDone
			return nil
		}
		if finished.Add(1) == n-1 {
			close(othersDone)
		}
		return nil
	}}
	cfg := s.config(t)
	var res *AnalysisResult
	var err error
	runAsync(t, func() { res, err = cfg.RunDocs(context.Background(), "order", s.docs()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != n {
		t.Fatalf("%d docs, want %d", len(res.Docs), n)
	}
	for i, d := range res.Docs {
		if d.Index != i || d.Doc.URL != "u"+strconv.Itoa(i) {
			t.Fatalf("Docs[%d] = index %d, %s: order not preserved", i, d.Index, d.Doc.URL)
		}
	}
}

// TestMultiStageChain: Run chains fetch into analyze — every document's
// fetched page is what its analysis read, in index order, and each stage
// hands on exactly what the next receives.
func TestMultiStageChain(t *testing.T) {
	const n = 50
	var analyzed sync.Map
	s := stubRun{n: n, analyze: func(_ context.Context, i int) error {
		if _, dup := analyzed.LoadOrStore(i, true); dup {
			return fmt.Errorf("d%d analyzed twice", i)
		}
		return nil
	}}
	res, err := s.config(t).Run(context.Background(), "chain")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != n || len(res.Docs) != n {
		t.Fatalf("hits %d, docs %d, want %d", res.Hits, len(res.Docs), n)
	}
	for i, d := range res.Docs {
		if d.Index != i || d.Doc.HTML != stubHTML(i) || d.Doc.Text != "d"+strconv.Itoa(i) || len(d.Analyses) != 1 {
			t.Fatalf("Docs[%d] = %+v", i, d)
		}
	}
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].In != res.Stages[i-1].Out {
			t.Errorf("%s In %d, %s Out %d", res.Stages[i].Name, res.Stages[i].In, res.Stages[i-1].Name, res.Stages[i-1].Out)
		}
	}
}

// TestWorkersOverlapFetchAndAnalyze pins Workers' meaning with gates, not
// timings: W fetches are in flight at once (the first W fetches wait for
// each other), an analysis runs while a fetch is blocked (the last fetch
// waits for an analysis to start), and never more than W fetches or W
// analyses run at once.
func TestWorkersOverlapFetchAndAnalyze(t *testing.T) {
	const w, n = 3, 12
	var fetching, analyzing, maxFetching, maxAnalyzing, arrived atomic.Int32
	allArrived := make(chan struct{})
	analyzeStarted := make(chan struct{})
	var startOnce sync.Once
	peak := func(cur int32, high *atomic.Int32) {
		for m := high.Load(); cur > m && !high.CompareAndSwap(m, cur); m = high.Load() {
		}
	}
	s := stubRun{
		n: n,
		fetch: func(_ context.Context, i int) error {
			peak(fetching.Add(1), &maxFetching)
			defer fetching.Add(-1)
			switch {
			case i < w:
				if arrived.Add(1) == w {
					close(allArrived)
				}
				<-allArrived
			case i == n-1:
				<-analyzeStarted
			}
			return nil
		},
		analyze: func(context.Context, int) error {
			peak(analyzing.Add(1), &maxAnalyzing)
			defer analyzing.Add(-1)
			startOnce.Do(func() { close(analyzeStarted) })
			runtime.Gosched()
			return nil
		},
	}
	cfg := s.config(t)
	cfg.Workers = w
	var res *AnalysisResult
	var err error
	runAsync(t, func() { res, err = cfg.Run(context.Background(), "overlap") })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != n {
		t.Fatalf("%d docs, want %d", len(res.Docs), n)
	}
	if m := maxFetching.Load(); m != w {
		t.Errorf("at most %d fetches in flight, want exactly %d", m, w)
	}
	if m := maxAnalyzing.Load(); m < 1 || m > w {
		t.Errorf("at most %d analyses in flight, want 1..%d", m, w)
	}
}

// TestAbortPolicyStopsPipeline: under abort, document 5's failed
// analysis cancels the run, and no fetch starts after that. Fetches past
// document 9 wait for the cancel, so a run that did not stop would hang.
func TestAbortPolicyStopsPipeline(t *testing.T) {
	const n, w = 200, 2
	var started atomic.Int32
	s := stubRun{
		n: n,
		fetch: func(ctx context.Context, i int) error {
			started.Add(1)
			if i >= 10 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
		analyze: func(_ context.Context, i int) error {
			if i == 5 {
				return docErr{"analyze", i}
			}
			return nil
		},
	}
	cfg := s.config(t)
	cfg.Workers = w
	var err error
	runAsync(t, func() { _, err = cfg.Run(context.Background(), "abort") })
	if !errors.Is(err, docErr{"analyze", 5}) {
		t.Fatalf("Run = %v, want document 5's failure", err)
	}
	if !strings.Contains(err.Error(), "pipeline: stage analyze: ") {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if got := started.Load(); got > 10+w {
		t.Errorf("%d fetches started, want ≤ %d: the abort did not stop the run", got, 10+w)
	}
}

// TestSkipPolicyDropsFailedItems: under skip, failed documents are
// dropped and counted in their own stage, the rest keep their order, and
// Skipped lists the failures in document order.
func TestSkipPolicyDropsFailedItems(t *testing.T) {
	s := stubRun{
		n: 20,
		fetch: func(_ context.Context, i int) error {
			if i%10 == 0 {
				return docErr{"fetch", i}
			}
			return nil
		},
		analyze: func(_ context.Context, i int) error {
			if i%10 == 5 {
				return docErr{"analyze", i}
			}
			return nil
		},
	}
	cfg := s.config(t)
	cfg.SkipFailedDocs = true
	res, err := cfg.Run(context.Background(), "skip")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 16 {
		t.Fatalf("%d docs, want 16", len(res.Docs))
	}
	for j, prev := 0, -1; j < len(res.Docs); j++ {
		if i := res.Docs[j].Index; i <= prev || i%5 == 0 {
			t.Fatalf("Docs[%d].Index = %d after %d", j, i, prev)
		} else {
			prev = i
		}
	}
	want := []StageStats{
		{Name: "search", Out: 20},
		{Name: "fetch", In: 20, Out: 18, Skipped: 2, Failures: 2},
		{Name: "analyze", In: 18, Out: 16, Skipped: 2, Failures: 2},
		{Name: "aggregate", In: 16, Out: 16},
	}
	for i, st := range res.Stages {
		st.Mean, st.P95 = 0, 0
		if i >= len(want) || st != want[i] {
			t.Errorf("Stages[%d] = %+v, want %+v", i, st, want)
		}
	}
	wantSkipped := []docErr{{"fetch", 0}, {"analyze", 5}, {"fetch", 10}, {"analyze", 15}}
	if len(res.Skipped) != len(wantSkipped) {
		t.Fatalf("Skipped = %v, want %v", res.Skipped, wantSkipped)
	}
	for i, err := range res.Skipped {
		if !errors.Is(err, wantSkipped[i]) || !strings.Contains(err.Error(), "stage "+wantSkipped[i].stage) {
			t.Errorf("Skipped[%d] = %v, want %v", i, err, wantSkipped[i])
		}
	}
}

// TestSkippedInDocumentOrder: Skipped is in document order even when the
// failures happen out of it — document 0's analysis fails only once
// document 2's fetch has failed and document 3's analysis has started.
func TestSkippedInDocumentOrder(t *testing.T) {
	thirdStarted := make(chan struct{})
	s := stubRun{
		n: 4,
		fetch: func(_ context.Context, i int) error {
			if i == 2 {
				return docErr{"fetch", i}
			}
			return nil
		},
		analyze: func(_ context.Context, i int) error {
			switch i {
			case 0:
				<-thirdStarted
				return docErr{"analyze", i}
			case 3:
				close(thirdStarted)
			}
			return nil
		},
	}
	cfg := s.config(t)
	cfg.Workers, cfg.SkipFailedDocs = 2, true
	var res *AnalysisResult
	var err error
	runAsync(t, func() { res, err = cfg.Run(context.Background(), "skip order") })
	if err != nil {
		t.Fatal(err)
	}
	want := []docErr{{"analyze", 0}, {"fetch", 2}}
	if len(res.Skipped) != len(want) {
		t.Fatalf("Skipped = %v, want %v", res.Skipped, want)
	}
	for i, err := range res.Skipped {
		if !errors.Is(err, want[i]) {
			t.Errorf("Skipped[%d] = %v, want %v", i, err, want[i])
		}
	}
}

// TestContextCancellationPropagates: a cancel from outside — here from
// inside document 3's analysis — stops the run with the context's error;
// fetches past document 5 wait for the cancel.
func TestContextCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	s := stubRun{
		n: 1000,
		fetch: func(ctx context.Context, i int) error {
			started.Add(1)
			if i > 5 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
		analyze: func(_ context.Context, i int) error {
			if i == 3 {
				cancel()
			}
			return nil
		},
	}
	cfg := s.config(t)
	var err error
	runAsync(t, func() { _, err = cfg.Run(ctx, "cancel") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if got := started.Load(); got > 6+int32(cfg.Workers) {
		t.Errorf("%d fetches started after a cancel at document 3", got)
	}
}

// TestSourceFuncErrorAborts: a failed search — Run's source — is the
// run's error, named for the search stage.
func TestSourceFuncErrorAborts(t *testing.T) {
	cfg := stubRun{n: 3}.config(t)
	boom := errors.New("search down")
	if err := cfg.Client.Register(service.Func{
		Meta: service.Info{Name: "search-down", Category: "search"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{}, boom
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Search = "search-down"
	_, err := cfg.Run(context.Background(), "q")
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "pipeline: stage search: ") {
		t.Fatalf("Run = %v, want the search failure", err)
	}
}

// TestDrainErrorAborts: a failing sentiment sink — where a run's answer
// drains to — fails RunDocs as it fails Run (TestAnalysisSentimentSink),
// after every document was analyzed.
func TestDrainErrorAborts(t *testing.T) {
	var analyzed atomic.Int32
	s := stubRun{n: 5, analyze: func(context.Context, int) error {
		analyzed.Add(1)
		return nil
	}}
	cfg := s.config(t)
	sinkErr := errors.New("sink failed")
	cfg.Sentiments = func(context.Context, []aggregate.EntitySentiment) error { return sinkErr }
	if _, err := cfg.RunDocs(context.Background(), "drain", s.docs()); !errors.Is(err, sinkErr) {
		t.Fatalf("RunDocs = %v, want %v", err, sinkErr)
	}
	if got := analyzed.Load(); got != 5 {
		t.Errorf("%d documents analyzed before the sink, want 5", got)
	}
}

// TestStatsAndMetrics: Run and RunDocs report their stages in wiring
// order with exact counts; every stage but the source records latency.
func TestStatsAndMetrics(t *testing.T) {
	s := stubRun{n: 25}
	cfg := s.config(t)
	res, err := cfg.Run(context.Background(), "stats")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := cfg.RunDocs(context.Background(), "stats", s.docs())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stages []StageStats
		want   []string
	}{
		{res.Stages, []string{"search", "fetch", "analyze", "aggregate"}},
		{docs.Stages, []string{"docs", "analyze", "aggregate"}},
	} {
		if len(tc.stages) != len(tc.want) {
			t.Fatalf("Stages = %+v, want %v", tc.stages, tc.want)
		}
		for i, st := range tc.stages {
			in := int64(25)
			if i == 0 {
				in = 0
			}
			if st.Name != tc.want[i] || st.In != in || st.Out != 25 || st.Skipped != 0 || st.Failures != 0 {
				t.Errorf("Stages[%d] = %+v, want %s in %d out 25", i, st, tc.want[i], in)
			}
			if recorded := i > 0; recorded != (st.Mean > 0) {
				t.Errorf("Stages[%d] %s: Mean = %v", i, st.Name, st.Mean)
			}
		}
	}
}

// TestWaitReturnsNilOnEmptySource: a search with no hits — an empty or
// a null list — or RunDocs over no documents, is a successful run with
// no documents and every stage reported.
func TestWaitReturnsNilOnEmptySource(t *testing.T) {
	s := stubRun{n: 0}
	cfg := s.config(t)
	res, err := cfg.Run(context.Background(), "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Client.Register(service.Func{
		Meta: service.Info{Name: "search-null", Category: "search"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: []byte(`{"engine":"search-null","results":null}`)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	nullCfg := cfg
	nullCfg.Search = "search-null"
	null, err := nullCfg.Run(context.Background(), "nothing")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := cfg.RunDocs(context.Background(), "nothing", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		res    *AnalysisResult
		stages []string
	}{
		{res, []string{"search", "fetch", "analyze", "aggregate"}},
		{null, []string{"search", "fetch", "analyze", "aggregate"}},
		{docs, []string{"docs", "analyze", "aggregate"}},
	} {
		r := tc.res
		if r.Hits != 0 || r.Docs != nil || r.Analyses != nil || len(r.Entities) != 0 || len(r.Skipped) != 0 {
			t.Errorf("empty run = %+v", r)
		}
		if len(r.Stages) != len(tc.stages) {
			t.Fatalf("empty run stages %+v, want %v", r.Stages, tc.stages)
		}
		for i, st := range r.Stages {
			if st.Name != tc.stages[i] || st.In != 0 || st.Out != 0 {
				t.Errorf("empty run Stages[%d] = %+v, want %s with nothing in or out", i, st, tc.stages[i])
			}
		}
	}
}

// TestRunLeavesNoGoroutines: Run and RunDocs return with the goroutine
// count where it was — on success, with skipped documents, after an
// abort and after a cancel from outside.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const n = 16
	failOdd := func(stage string) func(context.Context, int) error {
		return func(_ context.Context, i int) error {
			if i%2 == 1 {
				return docErr{stage, i}
			}
			return nil
		}
	}
	var cancelRun context.CancelFunc // the running call's, set before it starts
	cancelAt4 := func(_ context.Context, i int) error {
		if i == 4 {
			cancelRun()
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		s       stubRun
		skip    bool
		wantErr error
	}{
		{name: "success", s: stubRun{n: n}},
		{name: "skip", s: stubRun{n: n, fetch: failOdd("fetch"), analyze: failOdd("analyze")}, skip: true},
		{name: "abort", s: stubRun{n: n, analyze: failOdd("analyze")}, wantErr: docErr{"analyze", 1}},
		{name: "cancel", s: stubRun{n: n, analyze: cancelAt4}, wantErr: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.s.config(t)
			cfg.SkipFailedDocs = tc.skip
			for _, call := range []string{"Run", "RunDocs"} {
				ctx, cancel := context.WithCancel(context.Background())
				cancelRun = cancel
				before := runtime.NumGoroutine()
				var err error
				if call == "Run" {
					_, err = cfg.Run(ctx, "leak")
				} else {
					_, err = cfg.RunDocs(ctx, "leak", tc.s.docs())
				}
				checkNoGoroutinesLeft(t, before, call)
				cancel()
				if !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) {
					t.Errorf("%s = %v, want %v", call, err, tc.wantErr)
				}
			}
		})
	}
}
