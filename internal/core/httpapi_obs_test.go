package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/trace"
)

func newObsAPIServer(t *testing.T, opts ...APIOption) (*httptest.Server, *Client, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	t.Cleanup(tr.Close)
	c, err := NewClient(Config{Tracer: tr, Breaker: BreakerConfig{Threshold: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	svc, _ := countingService("echo", "nlu", nil)
	c.mustRegister(svc, WithCacheable())
	srv := httptest.NewServer(NewAPI(c, opts...))
	t.Cleanup(srv.Close)
	return srv, c, tr
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

func TestAPIStatsContent(t *testing.T) {
	srv, _, _ := newObsAPIServer(t)
	for i := 0; i < 3; i++ {
		r := postJSON(t, srv.URL+"/v1/invoke", invokeBody{Service: "echo", Request: service.Request{Text: "q"}})
		r.Body.Close()
	}
	var out struct {
		Services []metrics.Snapshot `json:"services"`
	}
	resp := getJSON(t, srv.URL+"/v1/stats", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Services) != 1 {
		t.Fatalf("stats cover %d services, want 1: %+v", len(out.Services), out)
	}
	s := out.Services[0]
	// Two of the three invocations were cache hits: only the miss reaches
	// the monitor.
	if s.Name != "echo" || s.Count != 1 || s.Failures != 0 || s.Availability != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="(\\.|[^"\\])*"(,[a-zA-Z0-9_]+="(\\.|[^"\\])*")*\})? (NaN|[+-]Inf|[0-9eE+.-]+)$`)

func TestAPIMetricsPrometheusText(t *testing.T) {
	srv, _, _ := newObsAPIServer(t)
	for i := 0; i < 2; i++ {
		r := postJSON(t, srv.URL+"/v1/invoke", invokeBody{Service: "echo", Request: service.Request{Text: "q"}})
		r.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every non-comment line must be a well-formed sample; every sample's
	// family must have HELP and TYPE headers.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("sample %q lacks a TYPE header", name)
		}
	}

	for _, want := range []string{
		`richsdk_service_invocations_total{service="echo"} 1`,
		`richsdk_service_failures_total{service="echo"} 0`,
		`richsdk_service_availability{service="echo"} 1`,
		`richsdk_service_latency_seconds{service="echo",quantile="0.5"}`,
		`richsdk_service_latency_seconds{service="echo",quantile="0.95"}`,
		`richsdk_service_latency_seconds{service="echo",quantile="0.99"}`,
		`richsdk_cache_hits_total 1`,
		`richsdk_breaker_state{service="echo"} 0`,
		`richsdk_traces_sampled_total 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// TestAPIMetricsHistogramFamilies validates true histogram exposition
// end-to-end: a Set attached via WithInstruments renders on /metrics with
// well-formed sample lines, TYPE headers covering the _bucket/_sum/_count
// suffixes, monotone non-decreasing cumulative buckets per labelset, a
// +Inf bucket exactly equal to _count, and correct escaping of label
// values containing quotes, backslashes, and newlines.
func TestAPIMetricsHistogramFamilies(t *testing.T) {
	set := metrics.NewSet()
	awkward := metrics.Label{Name: "source", Value: "a\\b\"c\nd"}
	hist := set.Histogram("richsdk_test_latency_seconds", "Test latency family.", awkward)
	for _, ms := range []int{1, 3, 3, 10, 40, 200, 1500} {
		hist.Observe(time.Duration(ms) * time.Millisecond)
	}
	// A second labelset in the same family: buckets must group per labelset.
	other := set.Histogram("richsdk_test_latency_seconds", "Test latency family.",
		metrics.Label{Name: "source", Value: "plain"})
	other.Observe(5 * time.Millisecond)
	set.Counter("richsdk_test_events_total", "Test counter family.").Add(7)

	srv, _, _ := newObsAPIServer(t, WithInstruments(set))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Strict line-level lint, now aware of the _bucket suffix.
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Errorf("sample %q lacks a TYPE header", name)
			}
		}
	}
	if got := typed["richsdk_test_latency_seconds"]; got != "histogram" {
		t.Errorf("TYPE richsdk_test_latency_seconds = %q, want histogram", got)
	}

	// Escaped label value appears verbatim; the raw control characters
	// never do (a raw newline would have broken promLine above anyway).
	if !strings.Contains(body, `source="a\\b\"c\nd"`) {
		t.Errorf("escaped label value missing from body")
	}

	// Reconstruct each labelset's bucket ladder and check cumulativity.
	type ladder struct {
		counts []float64
		infVal float64
		hasInf bool
	}
	ladders := map[string]*ladder{}
	counts := map[string]float64{}
	leRe := regexp.MustCompile(`^richsdk_test_latency_seconds_bucket\{(.*)le="([^"]*|\+Inf)"\} (\S+)$`)
	countRe := regexp.MustCompile(`^richsdk_test_latency_seconds_count(?:\{(.*)\})? (\S+)$`)
	for _, line := range strings.Split(body, "\n") {
		if m := leRe.FindStringSubmatch(line); m != nil {
			key := strings.TrimSuffix(m[1], ",")
			l := ladders[key]
			if l == nil {
				l = &ladder{}
				ladders[key] = l
			}
			v := parseProm(t, m[3])
			if m[2] == "+Inf" {
				l.infVal = v
				l.hasInf = true
			} else {
				l.counts = append(l.counts, v)
			}
			continue
		}
		if m := countRe.FindStringSubmatch(line); m != nil {
			counts[m[1]] = parseProm(t, m[2])
		}
	}
	if len(ladders) != 2 {
		t.Fatalf("found %d bucket labelsets, want 2 (keys: %v)", len(ladders), ladders)
	}
	for key, l := range ladders {
		if !l.hasInf {
			t.Fatalf("labelset %q has no +Inf bucket", key)
		}
		if len(l.counts) == 0 {
			t.Fatalf("labelset %q has no finite buckets", key)
		}
		for i := 1; i < len(l.counts); i++ {
			if l.counts[i] < l.counts[i-1] {
				t.Errorf("labelset %q: bucket %d decreases: %v -> %v", key, i, l.counts[i-1], l.counts[i])
			}
		}
		if last := l.counts[len(l.counts)-1]; l.infVal < last {
			t.Errorf("labelset %q: +Inf %v < last finite bucket %v", key, l.infVal, last)
		}
		count, ok := counts[key]
		if !ok {
			t.Fatalf("labelset %q has buckets but no _count (have %v)", key, counts)
		}
		if l.infVal != count {
			t.Errorf("labelset %q: +Inf bucket %v != _count %v", key, l.infVal, count)
		}
	}
	// Sanity: the awkward labelset observed 7 events.
	awkwardKey := `source="a\\b\"c\nd"`
	if counts[awkwardKey] != 7 {
		t.Errorf("_count for awkward labelset = %v, want 7 (keys: %v)", counts[awkwardKey], counts)
	}
}

func parseProm(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable sample value %q: %v", s, err)
	}
	return v
}

func TestAPITracesEndpoints(t *testing.T) {
	srv, _, _ := newObsAPIServer(t)
	r := postJSON(t, srv.URL+"/v1/invoke", invokeBody{Service: "echo", Request: service.Request{Text: "traced"}})
	r.Body.Close()

	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	if resp := getJSON(t, srv.URL+"/v1/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("listed %d traces after one invoke, want 1", len(list.Traces))
	}
	sum := list.Traces[0]
	if sum.Name != "invoke echo" || sum.ID == "" {
		t.Errorf("summary = %+v", sum)
	}

	var full trace.Trace
	if resp := getJSON(t, srv.URL+"/v1/traces/"+sum.ID, &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if full.ID != sum.ID {
		t.Errorf("trace ID = %q, want %q", full.ID, sum.ID)
	}
	// Root span per invoke, parent/child links intact across the stages
	// that ran (no breaker-free, quota-free shortcuts in this config).
	byID := map[int]trace.SpanData{}
	var root trace.SpanData
	for _, s := range full.Spans {
		byID[s.ID] = s
		if s.ParentID == 0 {
			root = s
		}
	}
	if root.Name != "invoke echo" {
		t.Fatalf("root span = %+v", root)
	}
	for _, s := range full.Spans {
		if s.ParentID == 0 {
			continue
		}
		if _, ok := byID[s.ParentID]; !ok {
			t.Errorf("span %q has dangling parent %d", s.Name, s.ParentID)
		}
	}
	wantStages := []string{"cache", "breaker", "monitor", "predict", "retry", "attempt"}
	have := map[string]bool{}
	for _, s := range full.Spans {
		have[s.Name] = true
	}
	for _, st := range wantStages {
		if !have[st] {
			t.Errorf("trace missing stage span %q (have %v)", st, have)
		}
	}

	if resp := getJSON(t, srv.URL+"/v1/traces/deadbeef00000000", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing-trace status = %d, want 404", resp.StatusCode)
	}
}

func TestAPITracesWithoutTracer(t *testing.T) {
	srv, _ := newAPIServer(t) // no tracer configured
	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	if resp := getJSON(t, srv.URL+"/v1/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if len(list.Traces) != 0 {
		t.Errorf("tracerless client listed traces: %+v", list)
	}
	if resp := getJSON(t, srv.URL+"/v1/traces/abc", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	// /metrics still renders, just without trace families.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.Contains(string(raw), "richsdk_traces_sampled_total") {
		t.Errorf("tracerless /metrics wrong: status=%d", resp.StatusCode)
	}
}
