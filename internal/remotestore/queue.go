package remotestore

import "sort"

// maxPending bounds the offline write-back queue (distinct keys). During a
// long outage a busy client can queue writes far faster than a reconnect
// will ever drain them; an unbounded queue turns an availability incident
// into a memory incident.
const maxPending = 4096

// writeQueue is the offline write-back queue: an ordered, per-key-coalesced
// buffer of writes awaiting Sync. A later write to a key already queued
// replaces the queued entry in place (the remote store only ever needs the
// final value — replaying superseded versions wastes uplink), so the queue
// holds at most one entry per key. When even that exceeds maxPending, the oldest
// entry is dropped and counted; the local mirror still has the value, so a
// drop trades durability-on-reconnect for bounded memory, which is the
// right trade during an unbounded outage.
//
// Callers hold the owning client's mutex; writeQueue does no locking.
type writeQueue struct {
	entries []pendingWrite
	index   map[string]int // key -> position in entries
	seq     int64
	dropped int64
}

// pendingWrite is one write queued while offline.
type pendingWrite struct {
	key    string
	value  []byte // encoded (post-codec) value; nil means delete
	seq    int64
	delete bool
}

func newWriteQueue() *writeQueue {
	return &writeQueue{index: make(map[string]int)}
}

// push queues a write (or delete), coalescing onto an existing entry for
// the same key. Returns true if an unrelated older entry was evicted to
// make room.
func (q *writeQueue) push(key string, encoded []byte, del bool) (evicted bool) {
	q.seq++
	w := pendingWrite{key: key, value: encoded, seq: q.seq, delete: del}
	if i, ok := q.index[key]; ok {
		// Coalesce: the newer write supersedes the queued one but keeps
		// its ring position — Sync replays in seq order, and the
		// superseded seq is gone.
		q.entries[i] = w
		return false
	}
	if len(q.entries) >= maxPending {
		oldest := q.entries[0]
		delete(q.index, oldest.key)
		q.entries = q.entries[1:]
		for k, i := range q.index {
			q.index[k] = i - 1
		}
		q.dropped++
		evicted = true
	}
	q.index[key] = len(q.entries)
	q.entries = append(q.entries, w)
	return evicted
}

// drain removes and returns every queued write in seq order.
func (q *writeQueue) drain() []pendingWrite {
	out := q.entries
	q.entries = nil
	q.index = make(map[string]int)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// requeue returns drained entries to the queue after a failed Sync. An
// entry whose key was re-written while the Sync was in flight is discarded
// (the in-queue write is newer). Requeued entries keep their original seq,
// so a later drain still replays oldest-first.
func (q *writeQueue) requeue(entries []pendingWrite) {
	if len(entries) == 0 {
		return
	}
	newer := q.entries
	q.entries = make([]pendingWrite, 0, len(entries)+len(newer))
	q.index = make(map[string]int, len(entries)+len(newer))
	for _, w := range entries {
		q.index[w.key] = len(q.entries)
		q.entries = append(q.entries, w)
	}
	for _, w := range newer {
		if i, ok := q.index[w.key]; ok {
			q.entries[i] = w
			continue
		}
		q.index[w.key] = len(q.entries)
		q.entries = append(q.entries, w)
	}
	// Enforce the cap after merging; over-cap entries drop oldest-first.
	for len(q.entries) > maxPending {
		oldest := q.entries[0]
		delete(q.index, oldest.key)
		q.entries = q.entries[1:]
		for k, i := range q.index {
			q.index[k] = i - 1
		}
		q.dropped++
	}
}

func (q *writeQueue) len() int { return len(q.entries) }
