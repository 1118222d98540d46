package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts observations into fixed-width bins over [Min, Max).
// Observations outside the range are clamped into the first or last bin so
// no data is silently dropped. The zero value is not ready; construct with
// NewHistogram. Histogram is not safe for concurrent use.
type Histogram struct {
	min, max float64
	width    float64
	counts   []uint64
	total    uint64
}

// NewHistogram returns a histogram with bins equal-width bins over
// [min, max). bins must be >= 1 and max must exceed min.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: bins %d < 1", bins)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: max %v <= min %v", max, min)
	}
	return &Histogram{
		min:    min,
		max:    max,
		width:  (max - min) / float64(bins),
		counts: make([]uint64, bins),
	}, nil
}

// Observe adds x to the histogram.
func (h *Histogram) Observe(x float64) {
	idx := int(math.Floor((x - h.min) / h.width))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// BinBounds returns the [lo, hi) bounds of bin i.
func (h *Histogram) BinBounds(i int) (lo, hi float64) {
	lo = h.min + float64(i)*h.width
	return lo, lo + h.width
}

// Quantile returns an estimate of quantile q (0 <= q <= 1) assuming
// observations are uniform within each bin. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			lo, _ := h.BinBounds(i)
			return lo + frac*h.width
		}
		cum = next
	}
	return h.max
}

// String renders a compact ASCII bar chart, one line per non-empty bin.
func (h *Histogram) String() string {
	var b strings.Builder
	var maxCount uint64
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := h.BinBounds(i)
		bar := 1
		if maxCount > 0 {
			bar = int(float64(c) / float64(maxCount) * 40)
			if bar < 1 {
				bar = 1
			}
		}
		fmt.Fprintf(&b, "[%10.3f, %10.3f) %8d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// Reservoir maintains a uniform random sample of bounded size over an
// unbounded stream (Vitter's Algorithm R). It underpins latency-history
// tracking: the SDK keeps a representative sample without unbounded memory.
// The sample's storage grows with what has been observed, by doubling up
// to the capacity and never past it, so a reservoir that saw ten values
// holds room for sixteen. Reservoir is not safe for concurrent use.
type Reservoir struct {
	capacity int
	seen     uint64
	items    []float64
	rnd      func() float64 // uniform [0,1); injectable for determinism
}

// NewReservoir returns a reservoir holding at most capacity samples. rnd
// supplies uniform [0,1) values; it must be non-nil. It is first called
// by the observation after the capacity-th, so a source that is costly to
// build can build itself then.
func NewReservoir(capacity int, rnd func() float64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{capacity: capacity, rnd: rnd}
}

// reservoirMinRoom is the storage a reservoir's first observation
// allocates, in samples (capacity permitting).
const reservoirMinRoom = 16

// Observe offers x to the reservoir.
func (r *Reservoir) Observe(x float64) {
	r.seen++
	if len(r.items) < r.capacity {
		if len(r.items) == cap(r.items) {
			grown := make([]float64, len(r.items), min(max(2*cap(r.items), reservoirMinRoom), r.capacity))
			copy(grown, r.items)
			r.items = grown
		}
		r.items = append(r.items, x)
		return
	}
	// Replace a random slot with probability capacity/seen.
	j := uint64(r.rnd() * float64(r.seen))
	if j < uint64(r.capacity) {
		r.items[j] = x
	}
}

// Seen returns the total number of observations offered.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Sample returns a copy of the current sample.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.items))
	copy(out, r.items)
	return out
}

// SortedSample returns the current sample in ascending order.
func (r *Reservoir) SortedSample() []float64 {
	out := r.Sample()
	sort.Float64s(out)
	return out
}
