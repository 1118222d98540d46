package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/failover"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/trace"
)

// The paper: "In order to allow programs written in other languages to
// access the rich SDK, the rich SDK can expose an HTTP interface allowing
// applications written in other languages to use it." API returns that
// interface:
//
//	POST /v1/invoke            {service, request}            -> Response
//	POST /v1/invoke-category   {category, request}           -> {response, attempts}
//	POST /v1/invoke-all        {category, request}           -> {results}
//	POST /v1/rank              {category, request}           -> {ranked}
//	GET  /v1/services                                        -> {services}
//	GET  /v1/stats                                           -> {services: [snapshots]}
//	GET  /v1/cache/stats                                     -> cache.Stats
//	POST /v1/cache/invalidate                                -> 204
//	GET  /v1/breakers                                        -> {breakers: [states]}
//	GET  /v1/traces                                          -> {traces: [summaries]}
//	GET  /v1/traces/{id}                                     -> trace.Trace
//	GET  /metrics                                            -> Prometheus text

// API wraps a Client as an http.Handler.
type API struct {
	client *Client
	mux    *http.ServeMux
	sets   []*metrics.Set
}

var _ http.Handler = (*API)(nil)

// APIOption customizes the HTTP façade.
type APIOption func(*API)

// WithInstruments renders every family registered in set — the substrate
// counters, gauges, and histograms from search, rdf, nlu and intern
// instrumentation — on /metrics alongside the client's own
// families. May be given multiple times; nil sets are ignored.
func WithInstruments(set *metrics.Set) APIOption {
	return func(a *API) {
		if set != nil {
			a.sets = append(a.sets, set)
		}
	}
}

// NewAPI returns the HTTP façade for client.
func NewAPI(client *Client, opts ...APIOption) *API {
	a := &API{client: client, mux: http.NewServeMux()}
	for _, o := range opts {
		o(a)
	}
	a.mux.HandleFunc("POST /v1/invoke", a.handleInvoke)
	a.mux.HandleFunc("POST /v1/invoke-category", a.handleInvokeCategory)
	a.mux.HandleFunc("POST /v1/invoke-all", a.handleInvokeAll)
	a.mux.HandleFunc("POST /v1/rank", a.handleRank)
	a.mux.HandleFunc("GET /v1/services", a.handleServices)
	a.mux.HandleFunc("GET /v1/stats", a.handleStats)
	a.mux.HandleFunc("GET /v1/cache/stats", a.handleCacheStats)
	a.mux.HandleFunc("POST /v1/cache/invalidate", a.handleCacheInvalidate)
	a.mux.HandleFunc("GET /v1/breakers", a.handleBreakers)
	a.mux.HandleFunc("GET /v1/traces", a.handleTraces)
	a.mux.HandleFunc("GET /v1/traces/{id}", a.handleTrace)
	a.mux.HandleFunc("GET /metrics", a.handleMetrics)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

type invokeBody struct {
	Service  string          `json:"service,omitempty"`
	Category string          `json:"category,omitempty"`
	Request  service.Request `json:"request"`
	NoCache  bool            `json:"noCache,omitempty"`
}

func (a *API) decode(w http.ResponseWriter, r *http.Request, into *invokeBody) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(into); err != nil {
		a.writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (a *API) writeErr(w http.ResponseWriter, status int, err error) {
	writeJSONStatus(w, status, map[string]string{"error": err.Error()})
}

func errStatus(err error) int {
	switch {
	case errors.Is(err, errUnknownService), errors.Is(err, errUnknownCategory):
		return http.StatusNotFound
	case errors.Is(err, service.ErrBadRequest):
		return http.StatusBadRequest
	// errShed also maps to 429: like a quota rejection it means "back
	// off and retry later", and it must stay cheap — a shed response is
	// the facade's pressure-relief valve under saturation.
	case errors.Is(err, service.ErrQuotaExceeded), errors.Is(err, errShed):
		return http.StatusTooManyRequests
	// ErrDeadline first: a deadline-bounded hang usually also wraps the
	// service's unavailability, and the timeout is the sharper diagnosis.
	case errors.Is(err, failover.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, failover.ErrBreakerOpen), errors.Is(err, service.ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (a *API) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var body invokeBody
	if !a.decode(w, r, &body) {
		return
	}
	var opts []InvokeOption
	if body.NoCache {
		opts = append(opts, NoCache())
	}
	resp, err := a.client.Invoke(r.Context(), body.Service, body.Request, opts...)
	if err != nil {
		a.writeErr(w, errStatus(err), err)
		return
	}
	writeJSONStatus(w, http.StatusOK, resp)
}

func (a *API) handleInvokeCategory(w http.ResponseWriter, r *http.Request) {
	var body invokeBody
	if !a.decode(w, r, &body) {
		return
	}
	var opts []InvokeOption
	if body.NoCache {
		opts = append(opts, NoCache())
	}
	resp, attempts, err := a.client.InvokeCategory(r.Context(), body.Category, body.Request, opts...)
	if err != nil {
		a.writeErr(w, errStatus(err), err)
		return
	}
	type attemptJSON struct {
		Service  string `json:"service"`
		Attempts int    `json:"attempts"`
		Error    string `json:"error,omitempty"`
	}
	out := struct {
		Response service.Response `json:"response"`
		Attempts []attemptJSON    `json:"attempts"`
	}{Response: resp}
	for _, at := range attempts {
		aj := attemptJSON{Service: at.Service, Attempts: at.Attempts}
		if at.Err != nil {
			aj.Error = at.Err.Error()
		}
		out.Attempts = append(out.Attempts, aj)
	}
	writeJSONStatus(w, http.StatusOK, out)
}

func (a *API) handleInvokeAll(w http.ResponseWriter, r *http.Request) {
	var body invokeBody
	if !a.decode(w, r, &body) {
		return
	}
	results, err := a.client.InvokeAll(r.Context(), body.Category, body.Request)
	if err != nil {
		a.writeErr(w, errStatus(err), err)
		return
	}
	type resultJSON struct {
		Service   string           `json:"service"`
		Response  service.Response `json:"response"`
		Error     string           `json:"error,omitempty"`
		LatencyMS float64          `json:"latencyMs"`
	}
	out := make([]resultJSON, 0, len(results))
	for _, res := range results {
		rj := resultJSON{Service: res.Service, Response: res.Response, LatencyMS: float64(res.Latency.Microseconds()) / 1000}
		if res.Err != nil {
			rj.Error = res.Err.Error()
		}
		out = append(out, rj)
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"results": out})
}

func (a *API) handleRank(w http.ResponseWriter, r *http.Request) {
	var body invokeBody
	if !a.decode(w, r, &body) {
		return
	}
	ranked, err := a.client.Rank(body.Category, body.Request)
	if err != nil {
		a.writeErr(w, errStatus(err), err)
		return
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"ranked": ranked})
}

func (a *API) handleServices(w http.ResponseWriter, r *http.Request) {
	names := a.client.Registry().Names()
	infos := make([]service.Info, 0, len(names))
	for _, n := range names {
		if svc, ok := a.client.Registry().Get(n); ok {
			infos = append(infos, svc.Info())
		}
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"services": infos})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, map[string]any{"services": a.client.Stats()})
}

func (a *API) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, a.client.CacheStats())
}

func (a *API) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	a.client.invalidateCache()
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) handleBreakers(w http.ResponseWriter, r *http.Request) {
	states := a.client.BreakerStates()
	if states == nil {
		states = []failover.BreakerState{}
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"breakers": states})
}

func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	summaries := a.client.Tracer().Traces()
	if summaries == nil {
		summaries = []trace.Summary{}
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"traces": summaries})
}

func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := a.client.Tracer().Trace(id)
	if !ok {
		a.writeErr(w, http.StatusNotFound, fmt.Errorf("core: no trace %q", id))
		return
	}
	writeJSONStatus(w, http.StatusOK, tr)
}

// breakerStateValue maps breaker states onto a numeric gauge: 0 closed,
// 1 half-open, 2 open, so alerting can threshold on "anything not closed".
func breakerStateValue(state string) float64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return 0
	}
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	tw := metrics.NewTextWriter(w)
	metrics.WriteSnapshots(tw, "richsdk_service", "service", a.client.Stats())
	for _, set := range a.sets {
		set.Expose(tw)
	}

	cs := a.client.CacheStats()
	tw.Family("richsdk_cache_hits_total", "Response-cache hits.", "counter")
	tw.Metric("richsdk_cache_hits_total", float64(cs.Hits))
	tw.Family("richsdk_cache_misses_total", "Response-cache misses.", "counter")
	tw.Metric("richsdk_cache_misses_total", float64(cs.Misses))
	tw.Family("richsdk_cache_evictions_total", "Response-cache evictions.", "counter")
	tw.Metric("richsdk_cache_evictions_total", float64(cs.Evictions))
	tw.Family("richsdk_cache_expired_total", "Expired response-cache entries reclaimed.", "counter")
	tw.Metric("richsdk_cache_expired_total", float64(cs.Expired))
	tw.Family("richsdk_cache_hit_ratio", "Response-cache hit ratio: hits / (hits + misses).", "gauge")
	tw.Metric("richsdk_cache_hit_ratio", cs.HitRatio())
	tw.Family("richsdk_cache_size", "Response-cache entries currently held.", "gauge")
	tw.Metric("richsdk_cache_size", float64(cs.Size))
	shardStats := a.client.cacheShardStats()
	tw.Family("richsdk_cache_shard_size", "Response-cache entries held per shard.", "gauge")
	for i, ss := range shardStats {
		tw.Metric("richsdk_cache_shard_size", float64(ss.Size), metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
	tw.Family("richsdk_cache_shard_evictions_total", "Response-cache evictions per shard.", "counter")
	for i, ss := range shardStats {
		tw.Metric("richsdk_cache_shard_evictions_total", float64(ss.Evictions), metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
	}

	if states := a.client.BreakerStates(); len(states) > 0 {
		tw.Family("richsdk_breaker_state", "Circuit-breaker state: 0 closed, 1 half-open, 2 open.", "gauge")
		for _, st := range states {
			tw.Metric("richsdk_breaker_state", breakerStateValue(st.State), metrics.Label{Name: "service", Value: st.Service})
		}
		tw.Family("richsdk_breaker_consecutive_failures", "Consecutive transient failures counted by the breaker.", "gauge")
		for _, st := range states {
			tw.Metric("richsdk_breaker_consecutive_failures", float64(st.Consecutive), metrics.Label{Name: "service", Value: st.Service})
		}
	}

	if sh := a.client.Shedder(); sh != nil {
		tw.Family("richsdk_shed_inflight", "Admitted calls currently in flight through the shed stage.", "gauge")
		tw.Metric("richsdk_shed_inflight", float64(sh.inFlight()))
		tw.Family("richsdk_shed_limit", "Current adaptive concurrency limit.", "gauge")
		tw.Metric("richsdk_shed_limit", float64(sh.Limit()))
		tw.Family("richsdk_shed_admitted_total", "Calls admitted by the shed stage.", "counter")
		tw.Metric("richsdk_shed_admitted_total", float64(sh.Admitted()))
		tw.Family("richsdk_shed_rejected_total", "Calls shed (fast 429) by the shed stage.", "counter")
		tw.Metric("richsdk_shed_rejected_total", float64(sh.Rejected()))
		tw.Family("richsdk_shed_latency", "Admitted-call latency as seen by the admission controller.", "histogram")
		metrics.WriteHistogram(tw, "richsdk_shed_latency", sh.latencySnapshot())
	}

	if tr := a.client.Tracer(); tr.Enabled() {
		st := tr.Stats()
		tw.Family("richsdk_traces_sampled_total", "Traces admitted by head sampling.", "counter")
		tw.Metric("richsdk_traces_sampled_total", float64(st.Sampled))
		tw.Family("richsdk_traces_unsampled_total", "Traces rejected by head sampling.", "counter")
		tw.Metric("richsdk_traces_unsampled_total", float64(st.Unsampled))
		tw.Family("richsdk_trace_spans_dropped_total", "Spans dropped by per-trace span budgets.", "counter")
		tw.Metric("richsdk_trace_spans_dropped_total", float64(st.DroppedSpans))
		tw.Family("richsdk_traces_stored", "Traces currently retained in the ring store.", "gauge")
		tw.Metric("richsdk_traces_stored", float64(st.Stored))
	}
	_ = tw.Err()
}
