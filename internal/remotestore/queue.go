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
// The index holds absolute positions: entries[i] sits at base+i, so
// dropping the oldest entry advances base and touches one map entry.
//
// Callers hold the owning client's mutex; writeQueue does no locking.
type writeQueue struct {
	entries []pendingWrite
	base    int            // absolute position of entries[0]
	index   map[string]int // key -> absolute position
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
	if p, ok := q.index[key]; ok {
		// Coalesce: the newer write supersedes the queued one but keeps
		// its queue position — Sync replays in seq order, and the
		// superseded seq is gone.
		q.entries[p-q.base] = w
		return false
	}
	if len(q.entries) >= maxPending {
		q.dropOldest()
		evicted = true
	}
	q.add(w)
	return evicted
}

// add appends w, whose key is not queued.
func (q *writeQueue) add(w pendingWrite) {
	q.index[w.key] = q.base + len(q.entries)
	q.entries = append(q.entries, w)
}

// dropOldest evicts the entry at the front of the queue and counts it.
// The slice's dead front is reclaimed when append next reallocates.
func (q *writeQueue) dropOldest() {
	delete(q.index, q.entries[0].key)
	q.entries[0] = pendingWrite{}
	q.entries = q.entries[1:]
	q.base++
	q.dropped++
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
		q.add(w)
	}
	for _, w := range newer {
		if p, ok := q.index[w.key]; ok {
			q.entries[p-q.base] = w
			continue
		}
		q.add(w)
	}
	// Enforce the cap after merging; over-cap entries drop oldest-first.
	for len(q.entries) > maxPending {
		q.dropOldest()
	}
}

func (q *writeQueue) len() int { return len(q.entries) }
