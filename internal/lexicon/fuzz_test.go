package lexicon

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"repro/internal/intern"
)

// FuzzPairCounts holds the PMI builder's flat pair table to a map model.
// Each op byte adds one count: below 0x40 to the small key it names (0
// included), from 0x40 to 0x7f to the 64-bit key in the next eight bytes,
// and from 0x80 up to a run of 16·(b&0x7f+1) packed ID pairs, which
// repeats counts when it recurs and grows the table past its first size.
// Afterwards every counted key must sit in exactly one slot with the
// model's count, no other slot may be taken, and the table must be at
// most half full. The named seeds under testdata/fuzz/FuzzPairCounts
// cover key 0, repeats, 64-bit keys and growth.
func FuzzPairCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab pairTable
		model := make(map[uint64]int)
		inc := func(key uint64) {
			tab.inc(key)
			model[key]++
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op < 0x40:
				inc(uint64(op))
			case op < 0x80:
				if len(data) < 8 {
					data = nil
					break
				}
				inc(binary.LittleEndian.Uint64(data))
				data = data[8:]
			default:
				for i := range 16 * (int(op&0x7f) + 1) {
					inc(uint64(i)<<32 | uint64(i+1))
				}
			}
		}
		seen := make(map[uint64]bool, len(model))
		for _, s := range tab.slots {
			if s.n == 0 {
				continue
			}
			if seen[s.key] {
				t.Fatalf("key %#x sits in two slots", s.key)
			}
			seen[s.key] = true
			if s.n != model[s.key] {
				t.Fatalf("key %#x counted %d, model %d", s.key, s.n, model[s.key])
			}
		}
		if len(seen) != len(model) || tab.used != len(model) {
			t.Fatalf("table holds %d keys (used %d), model %d", len(seen), tab.used, len(model))
		}
		if 2*tab.used > len(tab.slots) {
			t.Fatalf("%d keys in %d slots: over half full", tab.used, len(tab.slots))
		}
	})
}

// FuzzPMIBuilder holds PMIBuilder to a map model. The input decodes into
// documents of term IDs: a byte below 0xf0 is that ID, a byte from 0xf0
// to 0xfe an ID 64·(b&0x0f+1) above the largest seen so far, and 0xff
// ends the document, so empty documents and repeats inside the window
// are a byte away. The builder's dictionary stays empty while AddIDs
// counts — AddIDs must size its counts from the IDs alone — and after
// every document occ (exactly one count per ID up to the largest seen),
// total and every pair count must match the model. Then the dictionary
// names ID i "t<i>", so ties in weight order by string, not by ID, and
// Build must equal, bit for bit, a reference that sorts every neighbour
// and truncates. The named seeds under testdata/fuzz/FuzzPMIBuilder
// cover empty documents, repeats, far IDs and a term with more
// neighbours than it keeps, tied at the cut and not.
func FuzzPMIBuilder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		dict := intern.NewDict[string]()
		b := NewPMIBuilder(dict)
		occ := make(map[uint32]int)
		pairs := make(map[uint64]int)
		total, maxID := 0, -1 // maxID: the largest ID decoded so far
		var doc []uint32
		add := func() {
			b.AddIDs(doc)
			for j, y := range doc {
				occ[y]++
				for _, x := range doc[max(0, j-pmiWindow):j] {
					if x != y {
						pairs[uint64(min(x, y))<<32|uint64(max(x, y))]++
						total++
					}
				}
			}
			doc = doc[:0]
			if len(b.occ) != maxID+1 {
				t.Fatalf("occ has %d counts, largest ID %d", len(b.occ), maxID)
			}
			for id, n := range b.occ {
				if n != occ[uint32(id)] {
					t.Fatalf("occ[%d] = %d, model %d", id, n, occ[uint32(id)])
				}
			}
			if b.total != total {
				t.Fatalf("total %d, model %d", b.total, total)
			}
			if b.pairs.used != len(pairs) {
				t.Fatalf("%d pairs counted, model %d", b.pairs.used, len(pairs))
			}
			for key, n := range pairs {
				if got := pairCount(&b.pairs, key); got != n {
					t.Fatalf("pair %#x counted %d, model %d", key, got, n)
				}
			}
		}
		for _, c := range data {
			switch {
			case c < 0xf0:
				doc = append(doc, uint32(c))
				maxID = max(maxID, int(c))
			case c < 0xff:
				maxID = max(maxID, 0) + 64*(int(c&0x0f)+1)
				doc = append(doc, uint32(maxID))
			default:
				add()
			}
		}
		add()
		for id := range maxID + 1 {
			dict.Intern("t" + strconv.Itoa(id))
		}
		got, want := b.Build(), referenceBuild(dict, occ, pairs, total)
		if len(got) != len(want) {
			t.Fatalf("Build has %d terms, reference %d", len(got), len(want))
		}
		for term, ws := range want {
			gs := got[term]
			if len(gs) != len(ws) || cap(gs) != len(gs) {
				t.Fatalf("%q: %d neighbours (cap %d), reference %d", term, len(gs), cap(gs), len(ws))
			}
			for i := range ws {
				if gs[i].Term != ws[i].Term || math.Float64bits(gs[i].Weight) != math.Float64bits(ws[i].Weight) {
					t.Fatalf("%q neighbour %d: %v, reference %v", term, i, gs[i], ws[i])
				}
			}
		}
	})
}

// referenceBuild is Build from the model's counts: every neighbour that
// passes the floors, sorted whole, then truncated.
func referenceBuild(dict *intern.Dict[string], occ map[uint32]int, pairs map[uint64]int, total int) map[string][]Expansion {
	all := make(map[string][]Expansion)
	n := float64(total)
	for key, c := range pairs {
		if c < pmiMinCount {
			continue
		}
		x, y := uint32(key>>32), uint32(key)
		pmi := math.Log(float64(c) * n / (float64(occ[x]) * float64(occ[y])))
		if pmi < pmiMinPMI {
			continue
		}
		w := pmi / (1 + pmi)
		all[dict.Value(x)] = append(all[dict.Value(x)], Expansion{Term: dict.Value(y), Weight: w})
		all[dict.Value(y)] = append(all[dict.Value(y)], Expansion{Term: dict.Value(x), Weight: w})
	}
	for term, s := range all {
		sortExpansions(s)
		all[term] = s[:min(len(s), pmiMaxNeighbors)]
	}
	return all
}

// pairCount is key's count in t, 0 when t has no slot for it.
func pairCount(t *pairTable, key uint64) int {
	if len(t.slots) == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); t.slots[i].n != 0; i = (i + 1) & mask {
		if t.slots[i].key == key {
			return t.slots[i].n
		}
	}
	return 0
}
