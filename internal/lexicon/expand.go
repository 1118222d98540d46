package lexicon

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/intern"
)

// This file is the query-expansion layer: a synonym/alias table seeded
// from the entity gazetteer plus a corpus-derived PMI co-occurrence
// ("c-token") table built at index time. Search engines expand query
// terms through an Expander so that, e.g., a query for "usa" also
// retrieves documents that only say "america" — with a weight below the
// original term's so exact matches still dominate. The expansion weight
// and breadth are tuned per engine profile, which is one of the axes on
// which the G/B/Y search tunings genuinely diverge.

// Expansion is one weighted expansion term. Weight is a relatedness
// confidence in (0, 1]; engines multiply it by their own expansion
// weight before scoring.
type Expansion struct {
	Term   string
	Weight float64
}

// synonymWeight is the relatedness assigned to token pairs drawn from
// the same gazetteer entity's surface forms ("usa" ↔ "america"). Alias
// identity is strong evidence, so it sits near the top of the scale.
const synonymWeight = 0.8

// Expander merges the two expansion sources behind one lookup. The
// synonym table is static (built from the gazetteer); the co-occurrence
// table is optional and corpus-derived (see PMIBuilder). An Expander is
// immutable after construction and safe for concurrent use.
type Expander struct {
	syn  map[string][]Expansion
	cooc map[string][]Expansion
}

// NewExpander returns an expander over the gazetteer synonym table with
// no co-occurrence source. Use WithCooccurrence to attach one. The table
// is built once per process and shared: every Expander only reads it.
func NewExpander() *Expander {
	return &Expander{syn: synonyms()}
}

// synonyms is the gazetteer synonym table, built on first use.
var synonyms = sync.OnceValue(synonymTable)

// WithCooccurrence returns a copy of x that also consults the given
// corpus-derived table (term → neighbors, as produced by
// PMIBuilder.Build).
func (x *Expander) WithCooccurrence(table map[string][]Expansion) *Expander {
	return &Expander{syn: x.syn, cooc: table}
}

// Expand returns up to max expansion terms for term, strongest first
// (weight descending, then term ascending for determinism). The term
// itself is never returned. Synonym and co-occurrence candidates are
// merged; a term suggested by both keeps its larger weight.
func (x *Expander) Expand(term string, max int) []Expansion {
	if max <= 0 {
		return nil
	}
	merged := make(map[string]float64)
	for _, e := range x.syn[term] {
		if e.Weight > merged[e.Term] {
			merged[e.Term] = e.Weight
		}
	}
	for _, e := range x.cooc[term] {
		if e.Weight > merged[e.Term] {
			merged[e.Term] = e.Weight
		}
	}
	delete(merged, term)
	if len(merged) == 0 {
		return nil
	}
	out := make([]Expansion, 0, len(merged))
	for t, w := range merged {
		out = append(out, Expansion{Term: t, Weight: w})
	}
	sortExpansions(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// sortExpansions orders by weight descending, term ascending.
func sortExpansions(s []Expansion) {
	slices.SortFunc(s, compareExpansions)
}

// compareExpansions is sortExpansions' order.
func compareExpansions(a, b Expansion) int {
	if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
		return c
	}
	return strings.Compare(a.Term, b.Term)
}

// synonymTable links every content token of an entity's surface forms to
// every other content token of the same entity: "usa", "america",
// "united", and "states" all expand to one another because they are
// surface forms (or parts of surface forms) of country:us. Tokens are
// lower-cased; stopwords and single-character tokens are dropped, the
// same filter the search index applies.
func synonymTable() map[string][]Expansion {
	stop := StopwordSet()
	weights := make(map[string]map[string]float64)
	for _, e := range AllEntities() {
		tokens := surfaceTokens(e, stop)
		for _, a := range tokens {
			for _, b := range tokens {
				if a == b {
					continue
				}
				m := weights[a]
				if m == nil {
					m = make(map[string]float64)
					weights[a] = m
				}
				if synonymWeight > m[b] {
					m[b] = synonymWeight
				}
			}
		}
	}
	table := make(map[string][]Expansion, len(weights))
	for term, m := range weights {
		s := make([]Expansion, 0, len(m))
		for t, w := range m {
			s = append(s, Expansion{Term: t, Weight: w})
		}
		sortExpansions(s)
		table[term] = s
	}
	return table
}

// surfaceTokens returns the deduplicated content tokens of every surface
// form of e, in first-seen order.
func surfaceTokens(e Entity, stop map[string]bool) []string {
	var out []string
	seen := make(map[string]bool)
	for _, surface := range e.Surface() {
		for _, f := range strings.Fields(strings.ToLower(surface)) {
			f = strings.Trim(f, "'.,")
			if len(f) < 2 || stop[f] || seen[f] {
				continue
			}
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// PMIConfig is search.WithExpansion's argument. It has no fields: the
// co-occurrence table is built with the constants below. The type stays
// because the benchmark program (bench/, a module of its own) passes
// PMIConfig{} to search.WithExpansion.
type PMIConfig struct{}

// The co-occurrence table's build constants. A pair is observed when two
// distinct terms appear within pmiWindow positions of each other. Pairs
// observed fewer than pmiMinCount times (the noise floor) or whose
// pointwise mutual information is below pmiMinPMI are dropped, so only
// clearly positive associations survive, and each term keeps at most
// pmiMaxNeighbors neighbours.
const (
	pmiWindow       = 8
	pmiMinCount     = 3
	pmiMinPMI       = 1.0
	pmiMaxNeighbors = 8
)

// PMIBuilder accumulates windowed term co-occurrence counts over a token
// stream (the search index feeds it each document's filtered term IDs
// at build time) and turns them into a c-token table: for each term, the
// terms it is most associated with by pointwise mutual information,
//
//	PMI(x, y) = log( count(x,y) · N / (count(x) · count(y)) ),
//
// where N is the total number of pair observations. Terms are the IDs
// of the caller's intern.Dict, so the builder keeps no vocabulary of its
// own: occurrence counts are an ID-indexed slice and pair counts a flat
// open-addressed table keyed by the packed ID pair.
type PMIBuilder struct {
	dict  *intern.Dict[string]
	occ   []int
	pairs pairTable
	total int
}

// NewPMIBuilder returns an empty builder over dict's term IDs. dict must
// stay unfrozen until Build has returned: Build names terms through it.
func NewPMIBuilder(dict *intern.Dict[string]) *PMIBuilder {
	return &PMIBuilder{dict: dict}
}

// AddIDs observes one document's term IDs, in order. The caller filters
// stopwords and interns each term in the builder's dictionary; the
// builder only windows and counts. It sizes its occurrence counts from
// the IDs it is given and never reads the dictionary, so the search index
// can call it on a goroutine of its own while its scan goes on interning.
func (b *PMIBuilder) AddIDs(ids []uint32) {
	for i, x := range ids {
		if int(x) >= len(b.occ) {
			b.occ = append(b.occ, make([]int, int(x)+1-len(b.occ))...)
		}
		b.occ[x]++
		end := i + pmiWindow
		if end >= len(ids) {
			end = len(ids) - 1
		}
		for j := i + 1; j <= end; j++ {
			y := ids[j]
			if x == y {
				continue
			}
			lo, hi := x, y
			if lo > hi {
				lo, hi = hi, lo
			}
			b.pairs.inc(uint64(lo)<<32 | uint64(hi))
			b.total++
		}
	}
}

// Build computes the c-token table from the accumulated counts. Weights
// map PMI monotonically into (0, 1) via pmi/(1+pmi), so a just-above-
// floor association weighs around 0.5 and weights approach 1 only for
// extreme associations — comparable to, but never exceeding, the
// gazetteer synonym weight. Each term keeps its pmiMaxNeighbors best
// neighbours in sortExpansions' order: a neighbour is inserted into the
// term's short sorted list, or dropped when it ranks below a full list's
// last, so no term's whole neighbourhood is ever sorted. The order is
// total (a term meets each neighbour once), so the result is
// deterministic for a given input sequence regardless of the pair
// table's slot order. Each neighbour list is exactly as long as it is
// kept: the table lives as long as the index, so it holds no spare
// capacity. The dictionary must hold every ID AddIDs was given and stay
// unfrozen until Build returns: Build names terms through it.
func (b *PMIBuilder) Build() map[string][]Expansion {
	top := make([]Expansion, len(b.occ)*pmiMaxNeighbors)
	kept := make([]int, len(b.occ))
	n := float64(b.total)
	for _, e := range b.pairs.slots {
		if e.n < pmiMinCount {
			continue
		}
		x, y := uint32(e.key>>32), uint32(e.key)
		pmi := math.Log(float64(e.n) * n / (float64(b.occ[x]) * float64(b.occ[y])))
		if pmi < pmiMinPMI {
			continue
		}
		w := pmi / (1 + pmi)
		keepBest(top, kept, x, Expansion{Term: b.dict.Value(y), Weight: w})
		keepBest(top, kept, y, Expansion{Term: b.dict.Value(x), Weight: w})
	}
	terms, total := 0, 0
	for _, k := range kept {
		if k > 0 {
			terms++
			total += k
		}
	}
	arena := make([]Expansion, total)
	table := make(map[string][]Expansion, terms)
	for id, k := range kept {
		if k == 0 {
			continue
		}
		off := id * pmiMaxNeighbors
		copy(arena, top[off:off+k])
		table[b.dict.Value(uint32(id))], arena = arena[:k:k], arena[k:]
	}
	return table
}

// keepBest inserts e into term x's neighbour list (top's pmiMaxNeighbors
// slots from x·pmiMaxNeighbors, the first kept[x] in use) at its place
// in sortExpansions' order, dropping the list's last when it is full.
func keepBest(top []Expansion, kept []int, x uint32, e Expansion) {
	off := int(x) * pmiMaxNeighbors
	s := top[off : off+pmiMaxNeighbors]
	i := kept[x]
	for i > 0 && compareExpansions(e, s[i-1]) < 0 {
		i--
	}
	if i == pmiMaxNeighbors {
		return
	}
	k := min(kept[x]+1, pmiMaxNeighbors)
	copy(s[i+1:k], s[i:k-1])
	s[i] = e
	kept[x] = k
}

// pairTable counts uint64 keys in one flat open-addressed array (linear
// probing, Fibonacci hashing, doubled at half load). A slot is empty
// while its count is zero, so every key, 0 included, can be counted, and
// a full scan of slots visits each counted key once.
type pairTable struct {
	slots []pairSlot
	used  int
	shift uint // 64 - log2(len(slots))
}

type pairSlot struct {
	key uint64
	n   int
}

// inc adds one to key's count.
func (t *pairTable) inc(key uint64) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.n == 0 {
			*s = pairSlot{key: key, n: 1}
			t.used++
			return
		}
		if s.key == key {
			s.n++
			return
		}
	}
}

// home is key's first probe slot: the top log2(len(slots)) bits of key
// times 2^64/φ.
func (t *pairTable) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// grow doubles the slot array (1024 slots at first) and re-places every
// counted key.
func (t *pairTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 1024
	}
	t.slots = make([]pairSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.n == 0 {
			continue
		}
		i := t.home(e.key)
		for t.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}
