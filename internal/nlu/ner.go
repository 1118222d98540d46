package nlu

import (
	"sort"
	"strings"

	"repro/internal/intern"
	"repro/internal/lexicon"
)

// gazEntry is one compiled surface form.
type gazEntry struct {
	tokens    []string // lower-cased token sequence
	exactCase string   // required exact form for short acronyms, "" otherwise
	entityID  string
	kind      string
}

// idEntry is a surface form compiled to interned token IDs for the
// engines' hot path: matching a multi-word surface is then a run of
// uint32 comparisons with no string hashing.
type idEntry struct {
	ids       []uint32
	exactCase string
	entityID  string
	kind      string
}

// matcher performs gazetteer-based NER with longest-match-wins semantics.
// Construct once with newMatcher and share; it is immutable and safe for
// concurrent use.
type matcher struct {
	// byFirst maps the first (lower-cased) token of each surface form to
	// its candidate entries, longest first. It backs the public Match.
	byFirst map[string][]gazEntry
	// idByFirst is the same table keyed and compiled on token IDs, used
	// by the engines' span-based matching.
	idByFirst map[uint32][]idEntry
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
	m := &matcher{
		byFirst:   make(map[string][]gazEntry),
		idByFirst: make(map[uint32][]idEntry),
	}
	for _, e := range entities {
		for _, surface := range e.Surface() {
			words := strings.Fields(surface)
			if len(words) == 0 {
				continue
			}
			entry := gazEntry{
				tokens:   make([]string, len(words)),
				entityID: e.ID,
				kind:     e.Kind.String(),
			}
			ids := make([]uint32, len(words))
			for i, w := range words {
				entry.tokens[i] = strings.ToLower(w)
				ids[i] = resolve(entry.tokens[i])
			}
			if len(words) == 1 && len(words[0]) <= acronymMaxLen && words[0] == strings.ToUpper(words[0]) {
				entry.exactCase = words[0]
			}
			m.byFirst[entry.tokens[0]] = append(m.byFirst[entry.tokens[0]], entry)
			m.idByFirst[ids[0]] = append(m.idByFirst[ids[0]], idEntry{
				ids:       ids,
				exactCase: entry.exactCase,
				entityID:  e.ID,
				kind:      entry.kind,
			})
		}
	}
	// Longest surface first so "United States of America" beats "United
	// States". Both tables sort stably on the same key, keeping their
	// entry orders — and therefore tie behavior — identical.
	for first, entries := range m.byFirst {
		sortByLenDesc(entries)
		m.byFirst[first] = entries
	}
	for first, entries := range m.idByFirst {
		sort.SliceStable(entries, func(i, j int) bool { return len(entries[i].ids) > len(entries[j].ids) })
		m.idByFirst[first] = entries
	}
	m.extra = extra.Freeze()
	return m
}

// matchDoc is Match on interned spans: same left-to-right scan, same
// longest-match-wins, but each candidate comparison is integer equality.
// Document tokens and entry tokens resolve through the same injective
// vocabulary∪overflow mapping, so ID equality coincides exactly with
// lower-cased string equality.
func (m *matcher) matchDoc(text string, d *doc) []Mention {
	spans := d.spans
	var out []Mention
	for i := 0; i < len(spans); {
		entries := m.idByFirst[spans[i].id]
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

func sortByLenDesc(entries []gazEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && len(entries[j].tokens) > len(entries[j-1].tokens); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// Match finds gazetteer entity mentions in the token stream, scanning left
// to right with longest-match-wins and no overlaps.
func (m *matcher) Match(text string, tokens []Token) []Mention {
	var out []Mention
	for i := 0; i < len(tokens); {
		entries := m.byFirst[tokens[i].Lower]
		matched := false
		for _, e := range entries {
			if i+len(e.tokens) > len(tokens) {
				continue
			}
			if e.exactCase != "" && tokens[i].Text != e.exactCase {
				continue
			}
			ok := true
			for j, want := range e.tokens {
				if tokens[i+j].Lower != want {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			start := tokens[i].Start
			end := tokens[i+len(e.tokens)-1].End
			out = append(out, Mention{
				EntityID: e.entityID,
				Surface:  text[start:end],
				Kind:     e.kind,
				Start:    start,
				End:      end,
			})
			i += len(e.tokens)
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	return out
}

// heuristicMentions finds capitalized token runs that the gazetteer did not
// match and reports them as Unknown entities. Sentence-initial single
// capitalized words are skipped (ordinary sentence case), as are stopwords
// — this is the recall-over-precision half of NER that some engine
// profiles enable.
func heuristicMentions(text string, tokens []Token, covered []Mention, stop map[string]bool) []Mention {
	coveredAt := make(map[int]bool)
	for _, m := range covered {
		for b := m.Start; b < m.End; b++ {
			coveredAt[b] = true
		}
	}
	var out []Mention
	for i := 0; i < len(tokens); {
		t := tokens[i]
		if !isCapitalized(t.Text) || coveredAt[t.Start] || stop[t.Lower] {
			i++
			continue
		}
		// Collect the full capitalized run.
		j := i
		for j < len(tokens) && isCapitalized(tokens[j].Text) && !coveredAt[tokens[j].Start] && !stop[tokens[j].Lower] {
			j++
		}
		runLen := j - i
		// A single sentence-initial capitalized word is ordinary
		// sentence case, not evidence of an entity.
		if runLen == 1 && t.SentenceStart {
			i = j
			continue
		}
		start := tokens[i].Start
		end := tokens[j-1].End
		surface := text[start:end]
		out = append(out, Mention{
			EntityID: "unknown:" + strings.ToLower(surface),
			Surface:  surface,
			Kind:     "Unknown",
			Start:    start,
			End:      end,
		})
		i = j
	}
	return out
}
