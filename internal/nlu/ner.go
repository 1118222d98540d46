package nlu

import (
	"sort"
	"strings"

	"repro/internal/intern"
	"repro/internal/lexicon"
)

// gazEntry is one gazetteer surface form compiled to interned token IDs:
// matching a multi-word surface is then a run of uint32 comparisons with
// no string hashing.
type gazEntry struct {
	ids       []uint32
	exactCase string // required exact form for short acronyms, "" otherwise
	entityID  string
	kind      string
}

// matcher performs gazetteer-based NER with longest-match-wins semantics.
// Construct once with newMatcher and share; it is immutable and safe for
// concurrent use.
type matcher struct {
	// byFirst maps the ID of the first (lower-cased) token of each
	// surface form to its candidate entries, longest first.
	byFirst map[uint32][]gazEntry
	// extra interns surface tokens absent from the shared vocabulary
	// (possible with custom entities); the document scan consults it so
	// those tokens still resolve to matchable IDs.
	extra *intern.Frozen[string]
}

// acronymMaxLen bounds surface forms that require an exact-case match:
// "US" must not match the pronoun "us", but "germany" may match "Germany".
const acronymMaxLen = 3

// newMatcher compiles the given gazetteer entities into a matcher.
func newMatcher(entities []lexicon.Entity) *matcher {
	v := vocab()
	extra := intern.NewDict[string]()
	nVocab := uint32(v.dict.Len())
	resolve := func(w string) uint32 {
		if id, ok := v.dict.Lookup(w); ok {
			return id
		}
		return nVocab + extra.Intern(w)
	}
	m := &matcher{byFirst: make(map[uint32][]gazEntry)}
	for _, e := range entities {
		for _, surface := range e.Surface() {
			words := strings.Fields(surface)
			if len(words) == 0 {
				continue
			}
			entry := gazEntry{
				ids:      make([]uint32, len(words)),
				entityID: e.ID,
				kind:     e.Kind.String(),
			}
			for i, w := range words {
				entry.ids[i] = resolve(strings.ToLower(w))
			}
			if len(words) == 1 && len(words[0]) <= acronymMaxLen && words[0] == strings.ToUpper(words[0]) {
				entry.exactCase = words[0]
			}
			m.byFirst[entry.ids[0]] = append(m.byFirst[entry.ids[0]], entry)
		}
	}
	// Longest surface first so "United States of America" beats "United
	// States"; the sort is stable, so equal lengths keep gazetteer order.
	for first, entries := range m.byFirst {
		sort.SliceStable(entries, func(i, j int) bool { return len(entries[i].ids) > len(entries[j].ids) })
		m.byFirst[first] = entries
	}
	m.extra = extra.Freeze()
	return m
}

// matchDoc finds the gazetteer mentions in d's spans, scanning left to
// right with longest-match-wins and no overlaps; a mention's offsets
// slice text. Document tokens and entry tokens resolve through the same
// injective vocabulary∪overflow mapping, so ID equality coincides
// exactly with lower-cased string equality, and the mentions are
// nluref's Matcher.Match.
func (m *matcher) matchDoc(text string, d *doc) []Mention {
	spans := d.spans
	var out []Mention
	for i := 0; i < len(spans); {
		entries := m.byFirst[spans[i].id]
		matched := false
		for _, e := range entries {
			if i+len(e.ids) > len(spans) {
				continue
			}
			if e.exactCase != "" && text[spans[i].start:spans[i].end] != e.exactCase {
				continue
			}
			ok := true
			for j, want := range e.ids {
				if spans[i+j].id != want {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			start := int(spans[i].start)
			end := int(spans[i+len(e.ids)-1].end)
			out = append(out, Mention{
				EntityID: e.entityID,
				Surface:  text[start:end],
				Kind:     e.kind,
				Start:    start,
				End:      end,
			})
			i += len(e.ids)
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	return out
}
