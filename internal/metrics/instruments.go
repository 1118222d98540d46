package metrics

// Second-generation instrument layer: allocation-free atomic counters,
// gauges, and a lock-free log-linear latency histogram, grouped into
// labeled families by a Set and rendered in Prometheus exposition format
// through the TextWriter (expfmt.go).
//
// Instruments are nil-safe by contract: every method on a nil *Counter,
// *Gauge, or *Histogram is inert, so an uninstrumented substrate — one
// whose owner never attached a Set — pays a single nil check on its hot
// path and nothing else. That is what lets the search, RDF, and NLU
// engines carry instrumentation hooks unconditionally while library
// callers that never look at /metrics get the uninstrumented cost.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is inert.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depths, dictionary
// sizes, in-flight work). The zero value is ready to use; a nil Gauge is
// inert.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a zeroed gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear over nanoseconds. Values below
// histSubCount get one exact bucket each; above that, every power-of-two
// octave is split into histSubCount linear sub-buckets, so any recorded
// value sits in a bucket whose width is at most 1/histSubCount (6.25%)
// of its magnitude. The layout is fixed at compile time — every
// histogram shares it, which is what makes snapshots mergeable by plain
// bucket-wise addition.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // linear sub-buckets per octave
	// histMaxExp is the last full-resolution octave: values at or above
	// 2^(histMaxExp+1) ns (~2.4 hours) clamp into the final bucket, which
	// therefore only bounds its contents from below. Latencies that long
	// are failures of a different kind.
	histMaxExp = 42
	// histNumBuckets: histSubCount exact small-value buckets plus
	// histSubCount per octave for exponents histSubBits..histMaxExp.
	histNumBuckets = (histMaxExp - histSubBits + 2) * histSubCount
)

// bucketIndex maps a nanosecond value to its bucket. Non-positive values
// land in bucket 0; values past the clamp ceiling land in the last
// bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	if exp > histMaxExp {
		return histNumBuckets - 1
	}
	return (exp-histSubBits+1)<<histSubBits + int(v>>(exp-histSubBits)) - histSubCount
}

// bucketUpper returns the largest nanosecond value bucket i holds
// (ignoring the final bucket's clamped overflow).
func bucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	exp := i>>histSubBits + histSubBits - 1
	sub := i & (histSubCount - 1)
	return int64(histSubCount+sub+1)<<(exp-histSubBits) - 1
}

// Histogram is a lock-free latency distribution: fixed log-linear bucket
// layout, one atomic increment per bucket per observation, zero
// allocations per Observe. It is safe for unsynchronized concurrent use;
// a nil Histogram is inert. The zero value is ready to use.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	buckets [histNumBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe folds one latency in: two atomic adds, no allocation, no lock.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(int64(d))].Add(1)
}

// Snapshot copies the current distribution. Buckets are read one by one
// while writers may be running, so a snapshot taken under concurrent
// Observe calls can lag individual observations; Count is defined as the
// sum of the snapshot's buckets, keeping Count, Quantile, and the
// rendered cumulative buckets exactly consistent with each other.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, histNumBuckets)}
	if h == nil {
		return s
	}
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots from
// different histograms merge by bucket-wise addition (the layout is
// global), which is how per-shard or per-engine distributions roll up.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets []uint64 // len histNumBuckets, same global layout everywhere
}

// Mean returns the average observed latency, 0 with no data.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the q-th quantile (q in [0, 1]) as an exact rank
// selection over the bucketed data: the value returned is the upper
// bound of the bucket holding the rank-⌈q·n⌉ observation, so it is
// exact up to the bucket's width (≤ 6.25% of the value) and never an
// extrapolation. 0 with no data.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(histNumBuckets - 1))
}

// Set is a registry of instrument families: each family has a name, a
// help string, a type, and one instrument per label set. Registration
// (the Counter/Gauge/Histogram methods) takes a lock and may allocate;
// the returned instruments are the lock-free hot-path handles. Families
// render on /metrics in registration order via Expose. A nil Set returns
// nil (inert) instruments, so "instrument when given a Set, stay silent
// otherwise" needs no branching at the call site.
type Set struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

type family struct {
	name, help, typ string
	insts           []setInstrument
}

type setInstrument struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewSet returns an empty instrument set.
func NewSet() *Set {
	return &Set{index: make(map[string]*family)}
}

// lookup finds or creates the family and the instrument slot for the
// label set, enforcing one type per family name. It returns the existing
// instrument when the same name and labels were registered before, so
// labeled families can be built incrementally from several call sites.
func (s *Set) lookup(name, help, typ string, labels []Label) *setInstrument {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		s.index[name] = f
		s.families = append(s.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %s registered as %s, requested as %s", name, f.typ, typ))
	}
	for i := range f.insts {
		if labelsEqual(f.insts[i].labels, labels) {
			return &f.insts[i]
		}
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	f.insts = append(f.insts, setInstrument{labels: cp})
	return &f.insts[len(f.insts)-1]
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or retrieves) the counter for name and labels. A
// nil Set returns a nil (inert) counter.
func (s *Set) Counter(name, help string, labels ...Label) *Counter {
	if s == nil {
		return nil
	}
	in := s.lookup(name, help, "counter", labels)
	if in.c == nil {
		in.c = NewCounter()
	}
	return in.c
}

// Gauge registers (or retrieves) the gauge for name and labels. A nil
// Set returns a nil (inert) gauge.
func (s *Set) Gauge(name, help string, labels ...Label) *Gauge {
	if s == nil {
		return nil
	}
	in := s.lookup(name, help, "gauge", labels)
	if in.g == nil {
		in.g = NewGauge()
	}
	return in.g
}

// Histogram registers (or retrieves) the histogram for name and labels.
// A nil Set returns a nil (inert) histogram.
func (s *Set) Histogram(name, help string, labels ...Label) *Histogram {
	if s == nil {
		return nil
	}
	in := s.lookup(name, help, "histogram", labels)
	if in.h == nil {
		in.h = NewHistogram()
	}
	return in.h
}

// Expose renders every family, in registration order, through t. A nil
// Set renders nothing.
func (s *Set) Expose(t *TextWriter) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.families {
		t.Family(f.name, f.help, f.typ)
		for i := range f.insts {
			in := &f.insts[i]
			switch f.typ {
			case "counter":
				t.Metric(f.name, float64(in.c.Value()), in.labels...)
			case "gauge":
				t.Metric(f.name, float64(in.g.Value()), in.labels...)
			case "histogram":
				WriteHistogram(t, f.name, in.h.Snapshot(), in.labels...)
			}
		}
	}
}
