package remotestore

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// queueModel is the plain-slice oracle of writeQueue: entries in queue
// order, found by a linear scan.
type queueModel struct {
	entries []pendingWrite
	seq     int64
	dropped int64
}

func (m *queueModel) find(key string) int {
	for i, w := range m.entries {
		if w.key == key {
			return i
		}
	}
	return -1
}

func (m *queueModel) push(key string, encoded []byte, del bool) bool {
	m.seq++
	w := pendingWrite{key: key, value: encoded, seq: m.seq, delete: del}
	if i := m.find(key); i >= 0 {
		m.entries[i] = w
		return false
	}
	evicted := false
	if len(m.entries) >= maxPending {
		m.entries = m.entries[1:]
		m.dropped++
		evicted = true
	}
	m.entries = append(m.entries, w)
	return evicted
}

func (m *queueModel) drain() []pendingWrite {
	out := append([]pendingWrite(nil), m.entries...)
	m.entries = nil
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (m *queueModel) requeue(entries []pendingWrite) {
	if len(entries) == 0 {
		return
	}
	newer := m.entries
	m.entries = append([]pendingWrite(nil), entries...)
	for _, w := range newer {
		if i := m.find(w.key); i >= 0 {
			m.entries[i] = w
			continue
		}
		m.entries = append(m.entries, w)
	}
	for len(m.entries) > maxPending {
		m.entries = m.entries[1:]
		m.dropped++
	}
}

// FuzzWriteQueue runs push, coalesce, drain, requeue, len and dropped on a
// writeQueue and on queueModel and holds them equal after every step. Each
// input byte is one operation; a burst pushes past maxPending so drops
// happen, and a drain keeps its entries in flight until a later requeue
// returns the subset its mask selects, as a failed Sync does. The model's
// linear scans make a burst cost milliseconds, so an input gets two.
func FuzzWriteQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x02, 0x05, 0x13})
	f.Add([]byte{0x03, 0x00, 0x02, 0x44, 0x04, 0xff})
	f.Add([]byte{0x00, 0x10, 0x20, 0x02, 0x00, 0x30, 0x03, 0x04, 0x0f, 0x05})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		q, m := newWriteQueue(), &queueModel{}
		var inflight []pendingWrite
		fresh, bursts := 0, 0
		for step, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0, 1: // a write or a delete to one of 32 keys
				key, del := "k"+strconv.Itoa(arg), op&7 == 1
				value := []byte{byte(step)}
				if del {
					value = nil
				}
				if got, want := q.push(key, value, del), m.push(key, value, del); got != want {
					t.Fatalf("step %d: push(%s) evicted %v, model %v", step, key, got, want)
				}
			case 2: // a Sync starts
				got, want := q.drain(), m.drain()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: drain\n\t%v\nmodel\n\t%v", step, got, want)
				}
				inflight = got
			case 3: // a burst of distinct keys overflows the queue
				if bursts++; bursts > 2 {
					continue
				}
				for i := 0; i < maxPending+arg; i++ {
					key := "b" + strconv.Itoa(fresh)
					fresh++
					q.push(key, nil, true)
					m.push(key, nil, true)
				}
			case 4: // the Sync in flight fails for the entries arg selects
				var failed []pendingWrite
				for i, w := range inflight {
					if arg == 0 || arg>>(i%5)&1 == 1 {
						failed = append(failed, w)
					}
				}
				q.requeue(failed)
				m.requeue(append([]pendingWrite(nil), failed...))
				inflight = nil
			}
			if q.len() != len(m.entries) || q.dropped != m.dropped {
				t.Fatalf("step %d: len %d dropped %d, model len %d dropped %d", step, q.len(), q.dropped, len(m.entries), m.dropped)
			}
			if len(q.index) != len(q.entries) {
				t.Fatalf("step %d: %d index entries for %d queued", step, len(q.index), len(q.entries))
			}
			for i, w := range q.entries {
				if !reflect.DeepEqual(w, m.entries[i]) {
					t.Fatalf("step %d: entry %d is %v, model %v", step, i, w, m.entries[i])
				}
				if p := q.index[w.key]; p-q.base != i {
					t.Fatalf("step %d: index of %s points at %d, entry sits at %d", step, w.key, p-q.base, i)
				}
			}
		}
	})
}

// BenchmarkWriteQueueFullPush pushes distinct keys into a full offline
// queue, so every push drops the oldest entry.
func BenchmarkWriteQueueFullPush(b *testing.B) {
	q := newWriteQueue()
	keys := make([]string, maxPending+b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	for _, k := range keys[:maxPending] {
		q.push(k, nil, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range keys[maxPending:] {
		q.push(k, nil, true)
	}
}
