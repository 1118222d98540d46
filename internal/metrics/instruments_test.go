package metrics

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexLayout(t *testing.T) {
	// Small values get exact buckets.
	for v := int64(0); v < histSubCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := bucketUpper(int(v)); got != v {
			t.Fatalf("bucketUpper(%d) = %d, want %d", v, got, v)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
	// Past the clamp ceiling everything lands in the last bucket.
	if got := bucketIndex(1 << 60); got != histNumBuckets-1 {
		t.Fatalf("bucketIndex(1<<60) = %d, want %d", got, histNumBuckets-1)
	}
	// Buckets tile the range: index is monotone, upper bounds contain
	// their values, and relative width stays within 1/histSubCount.
	rng := rand.New(rand.NewSource(42))
	values := []int64{15, 16, 17, 31, 32, 33, 1000, 1023, 1024, 1 << 20, 1<<42 - 1, 1 << 42, 1<<43 - 1}
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int63n(1<<43))
	}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		up := bucketUpper(i)
		if v > up {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
		if i > 0 {
			lo := bucketUpper(i-1) + 1
			if v < lo {
				t.Fatalf("value %d below its bucket lower %d (bucket %d)", v, lo, i)
			}
			if width := up - lo + 1; v >= histSubCount && float64(width) > float64(v)/float64(histSubCount)+1 {
				t.Fatalf("bucket %d width %d too coarse for value %d", i, width, v)
			}
		}
	}
	// bucketUpper is strictly increasing over the whole layout.
	for i := 1; i < histNumBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestNilInstrumentsInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(3)
	g.Inc()
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var set *Set
	if set.Counter("x", "") != nil || set.Gauge("x", "") != nil || set.Histogram("x", "") != nil {
		t.Fatal("nil set must hand out nil instruments")
	}
	var sb strings.Builder
	set.Expose(NewTextWriter(&sb))
	if sb.Len() != 0 {
		t.Fatal("nil set exposed output")
	}
}

func TestCounterGauge(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	g := NewGauge()
	g.Set(10)
	g.Inc()
	g.Add(-3)
	if g.Value() != 8 {
		t.Fatalf("gauge = %d, want 8", g.Value())
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	h := NewHistogram()
	var want time.Duration
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Observe(d)
		want += d
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if m := s.Mean(); m != want/1000 {
		t.Fatalf("mean = %v, want %v", m, want/1000)
	}
	// Quantiles are exact up to bucket width (≤ 6.25%): the true P50 of
	// 1..1000ms is 500ms, P99 is 990ms.
	for _, tc := range []struct {
		q    float64
		true float64 // ms
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}} {
		got := float64(s.Quantile(tc.q)) / float64(time.Millisecond)
		if got < tc.true || got > tc.true*(1+1.0/histSubCount) {
			t.Fatalf("Quantile(%v) = %vms, want within [%v, %v]ms", tc.q, got, tc.true, tc.true*1.0625)
		}
	}
	if got := s.Quantile(0); got <= 0 || got > time.Duration(1.07*float64(time.Millisecond)) {
		t.Fatalf("Quantile(0) = %v, want ~1ms", got)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean should be 0")
	}
}

func TestHistogramClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(100 * time.Hour) // beyond the ~2.4h ceiling
	h.Observe(-time.Second)    // negative folds into bucket 0
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Buckets[histNumBuckets-1] != 1 || s.Buckets[0] != 1 {
		t.Fatal("clamped observations not in edge buckets")
	}
}

func TestSetFamilies(t *testing.T) {
	s := NewSet()
	c1 := s.Counter("hits_total", "Hits.", Label{"shard", "a"})
	c2 := s.Counter("hits_total", "Hits.", Label{"shard", "b"})
	if c1 == c2 {
		t.Fatal("distinct label sets must get distinct counters")
	}
	if again := s.Counter("hits_total", "Hits.", Label{"shard", "a"}); again != c1 {
		t.Fatal("same name+labels must be idempotent")
	}
	g := s.Gauge("depth", "Depth.")
	if again := s.Gauge("depth", "Depth."); again != g {
		t.Fatal("gauge registration must be idempotent")
	}
	h := s.Histogram("lat_seconds", "Latency.")
	if again := s.Histogram("lat_seconds", "Latency."); again != h {
		t.Fatal("histogram registration must be idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch on a family name must panic")
		}
	}()
	s.Gauge("hits_total", "oops")
}

func TestSetExpose(t *testing.T) {
	s := NewSet()
	s.Counter("richsdk_test_hits_total", "Hits.", Label{"shard", "a"}).Add(3)
	s.Counter("richsdk_test_hits_total", "Hits.", Label{"shard", "b"}).Add(5)
	s.Gauge("richsdk_test_depth", "Depth.").Set(-2)
	h := s.Histogram("richsdk_test_lat_seconds", "Latency.")
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(2 * time.Second)

	var sb strings.Builder
	tw := NewTextWriter(&sb)
	s.Expose(tw)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE richsdk_test_hits_total counter",
		`richsdk_test_hits_total{shard="a"} 3`,
		`richsdk_test_hits_total{shard="b"} 5`,
		"# TYPE richsdk_test_depth gauge",
		"richsdk_test_depth -2",
		"# TYPE richsdk_test_lat_seconds histogram",
		`richsdk_test_lat_seconds_bucket{le="+Inf"} 3`,
		"richsdk_test_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render in registration order.
	if strings.Index(out, "richsdk_test_hits_total") > strings.Index(out, "richsdk_test_depth") {
		t.Fatal("families out of registration order")
	}
}

func TestWriteHistogramCumulative(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(30 * time.Second))))
	}
	h.Observe(0)              // below the first le boundary
	h.Observe(99 * time.Hour) // clamped: appears only in +Inf
	snap := h.Snapshot()

	var sb strings.Builder
	tw := NewTextWriter(&sb)
	tw.Family("x_seconds", "X.", "histogram")
	WriteHistogram(tw, "x_seconds", snap, Label{"k", "v"})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	var last float64 = -1
	var infVal, countVal float64 = -1, -1
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "x_seconds_bucket"):
			var v float64
			if _, err := fmtSscan(line, &v); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("cumulative buckets decreased: %q after %v", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				infVal = v
			}
		case strings.HasPrefix(line, "x_seconds_count"):
			if _, err := fmtSscan(line, &countVal); err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
		}
	}
	if infVal < 0 || countVal < 0 {
		t.Fatalf("missing +Inf or _count line:\n%s", sb.String())
	}
	if infVal != countVal || infVal != float64(snap.Count) {
		t.Fatalf("+Inf bucket %v != _count %v (snapshot count %d)", infVal, countVal, snap.Count)
	}
}

// fmtSscan pulls the trailing float off an exposition line.
func fmtSscan(line string, v *float64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	f, err := strconv.ParseFloat(line[i+1:], 64)
	*v = f
	return 1, err
}
