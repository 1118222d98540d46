package metrics

import (
	"math"
	"slices"
	"testing"
	"time"
)

// monitorModel is the plain reference a Monitor is held to: counters, the
// exact nanosecond sum and every successful latency, kept sorted, whose
// quantile q is the upper bound of the bucket holding rank ⌈q·n⌉.
type monitorModel struct {
	count, failures, retries uint64
	sum                      int64
	sorted                   []int64
	qualitySum               float64
	qualityCount             uint64
}

func (r *monitorModel) record(o Observation) {
	r.count++
	if o.Attempts > 1 {
		r.retries += uint64(o.Attempts - 1)
	}
	if o.Err != nil {
		r.failures++
		return
	}
	ns := int64(o.Latency)
	r.sum += ns
	i, _ := slices.BinarySearch(r.sorted, ns)
	r.sorted = slices.Insert(r.sorted, i, ns)
}

func (r *monitorModel) quantile(q float64) time.Duration {
	n := len(r.sorted)
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return time.Duration(bucketUpper(bucketIndex(r.sorted[rank-1])))
}

func (r *monitorModel) snapshot(name string) Snapshot {
	s := Snapshot{
		Name: name, Count: r.count, Failures: r.failures, Retries: r.retries,
		Availability: 1, QualityCount: r.qualityCount,
	}
	if r.count > 0 {
		s.Availability = float64(r.count-r.failures) / float64(r.count)
	}
	if n := len(r.sorted); n > 0 {
		s.MeanLatency = time.Duration(r.sum / int64(n))
		s.MinLatency, s.MaxLatency = time.Duration(r.sorted[0]), time.Duration(r.sorted[n-1])
		s.P50Latency, s.P95Latency, s.P99Latency = r.quantile(0.50), r.quantile(0.95), r.quantile(0.99)
	}
	if r.qualityCount > 0 {
		s.MeanQuality = r.qualitySum / float64(r.qualityCount)
	}
	return s
}

// FuzzMonitor decodes bytes into a sequence of monitor operations and
// holds every Snapshot to the reference model's with ==. Each op is one
// byte:
//
//	bits 0-1  kind: 0 record a success, 1 record a failure,
//	          2 record a quality rating, 3 compare snapshots
//	bits 2-4  for records, how many following bytes (big-endian, at most
//	          6: past the histogram's clamp) make the latency in ns
//	bit  5    for records, negate the latency
//	bits 6-7  for records, the attempts (0-3; below 1 counts as one)
//
// A quality rating takes the next byte as int8/8. The snapshots are
// compared once more after the last op.
func FuzzMonitor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMonitor("svc")
		var want monitorModel
		check := func(op int) {
			exp := want.snapshot("svc")
			if got := m.Snapshot(); got != exp {
				t.Fatalf("after op %d: Snapshot\n got %+v\nwant %+v", op, got, exp)
			}
			mean, n := m.MeanQuality()
			if m.Count() != exp.Count || m.retries.Load() != exp.Retries || m.Availability() != exp.Availability ||
				m.MeanLatency() != exp.MeanLatency || mean != exp.MeanQuality || n != exp.QualityCount {
				t.Fatalf("after op %d: accessors disagree with Snapshot %+v", op, exp)
			}
			if d := m.hist.Snapshot(); d.Count != uint64(len(want.sorted)) || int64(d.Sum) != want.sum {
				t.Fatalf("after op %d: distribution holds %d summing to %d, want %d summing to %d",
					op, d.Count, d.Sum, len(want.sorted), want.sum)
			}
		}
		for op := 0; len(data) > 0; op++ {
			b := data[0]
			data = data[1:]
			switch b & 3 {
			case 0, 1:
				var ns int64
				for k := min(int(b>>2&7), 6); k > 0 && len(data) > 0; k-- {
					ns = ns<<8 | int64(data[0])
					data = data[1:]
				}
				if b&0x20 != 0 {
					ns = -ns
				}
				o := Observation{Latency: time.Duration(ns), Attempts: int(b >> 6)}
				if b&3 == 1 {
					o.Err = errBoom
				}
				m.Record(o)
				want.record(o)
			case 2:
				if len(data) == 0 {
					break
				}
				q := float64(int8(data[0])) / 8
				data = data[1:]
				m.RecordQuality(q)
				want.qualitySum += q
				want.qualityCount++
			case 3:
				check(op)
			}
		}
		check(-1)
	})
}
