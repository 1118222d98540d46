package lexicon

import (
	"encoding/binary"
	"testing"
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
