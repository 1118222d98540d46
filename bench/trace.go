package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The traced pass records spans from outside the program only: around the
// interfaces the rig hands to it (middleware, service, codec, store,
// http.Handler, http.RoundTripper) and around calls into public functions.
// Spans inside the program are ROADMAP item 4, not this benchmark.

// layer names the boundary a span was recorded at.
type layer uint8

const (
	lOp            layer = iota // root: one workload op, as its caller times it
	lHTTP                       // load client: request sent to reply read (wire + net/http both ends)
	lFacade                     // handler wrapper around core.NewAPI
	lChain                      // outermost Config.Middleware
	lBackendNLU                 // service.Service wrapper around a registered NLU backend
	lBackendSearch              // the same around a search backend
	lPipeline                   // AnalysisConfig.Run
	lFetch                      // http.RoundTripper wrapper under the pipeline's client
	lWebHandler                 // handler wrapper around Corpus.Handler
	lSink                       // AnalysisConfig.Sentiments wrapper (kb.StoreWebSentiments)
	lKBAssert                   // the loop entering a run's own facts (kb.AddFact)
	lKBInfer
	lKBQuery
	lKBRetire // the loop removing the facts of the run that left the window
	lKBSave
	lKBLoad
	lStorePut // remotestore.Store wrapper
	lStoreGet
	lStoreKeys
	lEncode // codec.Codec wrapper
	lDecode
	lNode // handler wrapper around a remotestore.Server
	numLayers
)

var layerNames = [numLayers]string{
	"load.op", "http.roundtrip", "core.facade", "core.chain", "nlu.backend", "search.backend",
	"pipeline.run", "webcorpus.fetch", "webcorpus.handler", "kb.sink", "kb.assert", "kb.infer", "kb.query", "kb.retire",
	"kb.save", "kb.load", "remotestore.put", "remotestore.get", "remotestore.keys",
	"codec.encode", "codec.decode", "node.serve",
}

// span is one recorded interval. parent is an index into the same shard's
// spans, -1 for a root; start and end are ns since the recorder's base.
type span struct {
	layer      layer
	op         int32
	parent     int32
	start, end int64
}

// shard holds the spans of one caller's ops. Each caller appends to its
// own preallocated shard, so callers never contend; the mutex is there for
// the spans other goroutines open on the op's behalf (server handlers,
// pipeline workers, R=2 fan-out).
type shard struct {
	mu    sync.Mutex
	spans []span
}

type recorder struct {
	base   time.Time
	shards []*shard
	bound  sync.Map // goroutine id -> spanRef, see bind
}

// spanRef addresses one open span. The zero ref is inert: children of it
// are inert too, so wrappers need no "is tracing on" branches.
type spanRef struct {
	rec   *recorder
	shard int32
	idx   int32
	op    int32
}

func newRecorder(callers, spansPerCaller int) *recorder {
	r := &recorder{base: time.Now(), shards: make([]*shard, callers)}
	for i := range r.shards {
		r.shards[i] = &shard{spans: make([]span, 0, spansPerCaller)}
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) open(sh, op, parent int32, l layer) spanRef {
	s := r.shards[sh]
	t := r.now()
	s.mu.Lock()
	idx := int32(len(s.spans))
	s.spans = append(s.spans, span{layer: l, op: op, parent: parent, start: t})
	s.mu.Unlock()
	return spanRef{rec: r, shard: sh, idx: idx, op: op}
}

// root opens the root span of op on caller's shard.
func (r *recorder) root(caller int, op int32) spanRef {
	return r.open(int32(caller), op, -1, lOp)
}

func (p spanRef) child(l layer) spanRef {
	if p.rec == nil {
		return spanRef{}
	}
	return p.rec.open(p.shard, p.op, p.idx, l)
}

func (p spanRef) end() {
	if p.rec == nil {
		return
	}
	t := p.rec.now()
	s := p.rec.shards[p.shard]
	s.mu.Lock()
	s.spans[p.idx].end = t
	s.mu.Unlock()
}

// Three carriers hand a parent span to the next wrapper: the context where
// the interface passes one, the spanHeader across an HTTP hop, and the
// goroutine binding for the two interfaces that pass neither
// (remotestore.Store and codec.Codec run on their caller's goroutine).

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

const spanHeader = "X-Bench-Span"

func (p spanRef) header() string {
	return strconv.Itoa(int(p.shard)) + "." + strconv.Itoa(int(p.idx)) + "." + strconv.Itoa(int(p.op))
}

func (r *recorder) fromHeader(h string) spanRef {
	parts := strings.Split(h, ".")
	if len(parts) != 3 {
		return spanRef{}
	}
	var v [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return spanRef{}
		}
		v[i] = n
	}
	if v[0] < 0 || v[0] >= len(r.shards) {
		return spanRef{}
	}
	return spanRef{rec: r, shard: int32(v[0]), idx: int32(v[1]), op: int32(v[2])}
}

// goid reads the running goroutine's id from the first line of its stack
// ("goroutine 18 [running]:"), about a microsecond. Only the store and
// codec wrappers pay it, on ops that take hundreds.
func goid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id uint64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// bind makes ref the current span of the calling goroutine until the
// returned function runs; it restores whatever was bound before.
func (p spanRef) bind() (unbind func()) {
	if p.rec == nil {
		return func() {}
	}
	id := goid()
	prev, had := p.rec.bound.Load(id)
	p.rec.bound.Store(id, p)
	return func() {
		if had {
			p.rec.bound.Store(id, prev)
		} else {
			p.rec.bound.Delete(id)
		}
	}
}

// current returns the span bound to the calling goroutine, the zero ref
// when there is none.
func (r *recorder) current() spanRef {
	if v, ok := r.bound.Load(goid()); ok {
		return v.(spanRef)
	}
	return spanRef{}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval its children cover. Children may overlap (R=2 fan-out, pipeline
// workers) and may outlive the parent (a background replica ack); the
// union is clipped to the parent's interval. Spans that never ended count
// as empty.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) && s.end > s.start {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end <= s.start {
			continue
		}
		self[i] = s.end - s.start
		ks := kids[i]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTotals is one layer's share of a traced phase.
type layerTotals struct {
	Count  int64
	DurNS  int64
	SelfNS int64
}

func (t layerTotals) meanDur(unit float64) float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.DurNS) / float64(t.Count) / unit
}

func (t layerTotals) meanSelf(unit float64) float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.SelfNS) / float64(t.Count) / unit
}

// totals folds the spans of ops in [fromOp, ∞) into per-layer sums, so the
// warm-up's spans stay out of the timed phase's numbers.
func (r *recorder) totals(fromOp int32) [numLayers]layerTotals {
	var out [numLayers]layerTotals
	for _, sh := range r.shards {
		sh.mu.Lock()
		self := selfTimes(sh.spans)
		for i, s := range sh.spans {
			if s.op < fromOp || s.end <= s.start {
				continue
			}
			t := &out[s.layer]
			t.Count++
			t.DurNS += s.end - s.start
			t.SelfNS += self[i]
		}
		sh.mu.Unlock()
	}
	return out
}

// writeSpans dumps every span as CSV: shard,index,layer,op,parent,start_ns,end_ns.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "shard,index,layer,op,parent,start_ns,end_ns")
	var line []byte
	for si, sh := range r.shards {
		sh.mu.Lock()
		for i, s := range sh.spans {
			line = line[:0]
			line = strconv.AppendInt(line, int64(si), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, ',')
			line = append(line, layerNames[s.layer]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.op), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, '\n')
			_, _ = w.Write(line) // a bufio.Writer keeps its first error for Flush
		}
		sh.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
