// Package intern is the shared symbol-table layer beneath the interned
// subsystems: the RDF store, the search index, the lexicon's PMI builder,
// and the NLU hot path all map their vocabularies through it instead of
// keeping private copies of the same two-way dictionary.
//
// It offers two concrete shapes for the two ownership models those
// consumers actually have:
//
//   - Dict is the mutable table: each distinct value is assigned a dense
//     uint32 ID on first sight and IDs stay stable forever (they are never
//     reclaimed, matching the RDF store's contract that compiled rule
//     patterns and concurrent readers can hold IDs across removals).
//     A Dict is not synchronized; the owner supplies the lock.
//
//   - Frozen is the immutable snapshot for read-mostly consumers: the
//     search index builds its dictionary once and then serves concurrent
//     queries with no synchronization, and the NLU engines share one
//     process-wide vocabulary across goroutines. Freeze takes ownership
//     of the Dict's tables, so snapshotting is O(1).
//
// IDs are dense from zero in both shapes, so ^uint32(0) is safe as an
// out-of-band sentinel (the RDF store's wildcard, the NLU matcher's
// unknown-token marker) and ID-indexed side tables are plain slices.
package intern

// Dict is a mutable two-way symbol table assigning dense uint32 IDs.
// The zero value is not ready for use; call NewDict.
type Dict[T comparable] struct {
	ids  map[T]uint32
	vals []T
}

// NewDict returns an empty dictionary.
func NewDict[T comparable]() *Dict[T] {
	return &Dict[T]{ids: make(map[T]uint32)}
}

// Intern returns v's ID, assigning the next free one on first sight.
func (d *Dict[T]) Intern(v T) uint32 {
	if id, ok := d.ids[v]; ok {
		return id
	}
	id := uint32(len(d.vals))
	d.ids[v] = id
	d.vals = append(d.vals, v)
	return id
}

// Lookup returns v's ID without assigning one. A miss means no interned
// datum can contain v.
func (d *Dict[T]) Lookup(v T) (uint32, bool) {
	id, ok := d.ids[v]
	return id, ok
}

// Value maps an ID back to its value. It panics on IDs the dictionary
// never issued, the same contract as indexing a slice.
func (d *Dict[T]) Value(id uint32) T { return d.vals[id] }

// Len returns the number of distinct values interned.
func (d *Dict[T]) Len() int { return len(d.vals) }

// Reset empties the dictionary while keeping its allocated tables, so a
// pooled per-document overflow dict can be reused across documents
// without reallocating. IDs restart from zero; any IDs issued before the
// reset are invalidated.
func (d *Dict[T]) Reset() {
	clear(d.ids)
	d.vals = d.vals[:0]
}

// Freeze converts the dictionary into an immutable snapshot, taking
// ownership of its tables: the Dict must not be used afterwards (every
// method panics, making accidental post-freeze writes loud rather than
// racy). The O(1) handoff is what lets index builds intern millions of
// terms and still freeze for free.
func (d *Dict[T]) Freeze() *Frozen[T] {
	f := &Frozen[T]{ids: d.ids, vals: d.vals}
	d.ids = nil
	d.vals = nil
	return f
}

// Frozen is an immutable two-way symbol table. It is safe for concurrent
// use with no synchronization: nothing mutates after Freeze.
type Frozen[T comparable] struct {
	ids  map[T]uint32
	vals []T
}

// Lookup returns v's ID. A miss means v was not in the dictionary when it
// was frozen.
func (f *Frozen[T]) Lookup(v T) (uint32, bool) {
	id, ok := f.ids[v]
	return id, ok
}

// Value maps an ID back to its value.
func (f *Frozen[T]) Value(id uint32) T { return f.vals[id] }

// Len returns the number of distinct values.
func (f *Frozen[T]) Len() int { return len(f.vals) }

// LookupBytes is Frozen[string].Lookup keyed by a byte slice. The
// compiler elides the string conversion in the map probe, so hot paths
// (the NLU tokenizer lowering into a reusable buffer) can look tokens up
// with zero allocations. It is a free function because Go does not allow
// methods on a specialized instantiation.
func LookupBytes(f *Frozen[string], b []byte) (uint32, bool) {
	id, ok := f.ids[string(b)]
	return id, ok
}

// DictLookupBytes is Dict[string].Lookup keyed by a byte slice, the
// mutable-table counterpart of LookupBytes.
func DictLookupBytes(d *Dict[string], b []byte) (uint32, bool) {
	id, ok := d.ids[string(b)]
	return id, ok
}
