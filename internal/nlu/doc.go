package nlu

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/intern"
	"repro/internal/xrand"
)

// span is the internal token representation on the hot path: byte
// offsets, the interned ID of the lower-cased form, and precomputed
// classification flags. Compare Token, the public string-carrying shape.
type span struct {
	start, end int32
	id         uint32
	flags      uint8
}

const (
	fSentStart uint8 = 1 << iota // first token of a sentence
	fCapital                     // starts with an upper-case letter
	fStop                        // stopword
	fKeyword                     // eligible for keyword counting
)

// oovID is the shared ID for out-of-vocabulary tokens that never need a
// distinct identity (too short or numeric, so no counting path reads
// them): every consumer either checks a flag first or skips IDs outside
// the vocabulary, and gazetteer entries never carry it, so sharing one
// sentinel is safe and skips the per-word interning.
const oovID = ^uint32(0)

// localCap bounds the pooled overflow dict; past it the dict is reset at
// release so an adversarial stream of unique words cannot grow it
// without bound.
const localCap = 4096

// doc is the pooled per-document scratch: one allocation-heavy bundle
// reused across Analyze calls instead of rebuilt per document. Token IDs
// live in a three-segment namespace — [0, nVocab) is the shared
// vocabulary, [nVocab, nVocab+nExtra) the matcher's gazetteer overflow,
// and everything above that the per-document local dict — so every token
// has a unique ID and matching is pure integer comparison.
type doc struct {
	spans    []span
	local    *intern.Dict[string]
	extra    *intern.Frozen[string]
	nVocab   uint32
	nExtra   uint32
	lower    []byte
	counts   []int32  // keyword counts indexed by token ID, sparse-reset via touched
	touched  []uint32 // IDs with nonzero counts
	hits     []sentimentHit
	sentence []int32
	votes    []int32 // concept votes indexed by label
	kws      []kwPair
	entIDs   []string
	entSum   []float64
	entN     []int
	rng      *xrand.Source
	nOOV     int32 // tokens in the last scan not in the shared vocabulary
}

var docPool = sync.Pool{
	New: func() any {
		// A pool miss is the allocation the pooling exists to avoid;
		// count it so the reuse rate shows up on /metrics.
		if o := obsPtr.Load(); o != nil {
			o.allocs.Inc()
		}
		return &doc{local: intern.NewDict[string](), rng: xrand.New(0)}
	},
}

// scan tokenizes text into d's span buffer, lowering each token into a
// reusable byte buffer and resolving it to an ID: shared vocabulary
// first (zero-allocation byte lookup), then the matcher's overflow
// table, then the per-document dict (which allocates only the first time
// a given out-of-vocabulary word appears in the document).
func (d *doc) scan(text string, v *vocabTables, extra *intern.Frozen[string]) {
	d.extra = extra
	d.nVocab = uint32(v.dict.Len())
	d.nExtra = uint32(extra.Len())
	d.nOOV = 0
	scanWords(text, func(start, end int, sentenceStart bool) {
		sp := span{start: int32(start), end: int32(end)}
		if sentenceStart {
			sp.flags |= fSentStart
		}
		tok := text[start:end]
		if c := tok[0]; c >= 'A' && c <= 'Z' {
			sp.flags |= fCapital
		} else if c >= 0x80 && isCapitalized(tok) {
			sp.flags |= fCapital
		}
		lower := appendLower(d.lower[:0], tok)
		d.lower = lower

		eligible := len(lower) >= 3 && !numericBytes(lower)
		id, ok := intern.LookupBytes(v.dict, lower)
		if ok {
			if v.stop[id] {
				sp.flags |= fStop
				eligible = false
			}
		} else {
			d.nOOV++
			if eid, eok := intern.LookupBytes(extra, lower); eok {
				id = d.nVocab + eid
			} else if eligible {
				// Only keyword-eligible words need a distinct identity; the
				// local dict persists across pooled documents so a word costs
				// one allocation the first time this scratch doc ever sees it,
				// not once per document.
				lid, lok := intern.DictLookupBytes(d.local, lower)
				if !lok {
					lid = d.local.Intern(string(lower))
				}
				id = d.nVocab + d.nExtra + lid
			} else {
				id = oovID
			}
		}
		sp.id = id
		if eligible {
			sp.flags |= fKeyword
		}
		d.spans = append(d.spans, sp)
	})
}

func numericBytes(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(b) > 0
}

// release sparse-resets the scratch and returns the doc to the pool.
func (d *doc) release() {
	for _, id := range d.touched {
		d.counts[id] = 0
	}
	d.touched = d.touched[:0]
	d.spans = d.spans[:0]
	d.hits = d.hits[:0]
	d.sentence = d.sentence[:0]
	d.entIDs = d.entIDs[:0]
	d.entSum = d.entSum[:0]
	d.entN = d.entN[:0]
	if d.local.Len() > localCap {
		d.local.Reset()
	}
	d.extra = nil
	docPool.Put(d)
}

// value maps a token ID back through whichever of the three segments
// issued it.
func (d *doc) value(v *vocabTables, id uint32) string {
	if id < d.nVocab {
		return v.dict.Value(id)
	}
	if id < d.nVocab+d.nExtra {
		return d.extra.Value(id - d.nVocab)
	}
	return d.local.Value(id - d.nVocab - d.nExtra)
}

// tokenAt returns the index of the token containing byte offset off, or
// the first token after it, or the last token (-1 in a document without
// tokens) — the same answer nluref's linear scan gives, found by binary
// search over the sorted non-overlapping spans.
func (d *doc) tokenAt(off int32) int {
	spans := d.spans
	i := sort.Search(len(spans), func(j int) bool { return spans[j].end > off })
	if i == len(spans) {
		return len(spans) - 1
	}
	return i
}

// heuristicMentions finds capitalized token runs that no gazetteer
// mention covers and reports them as Unknown entities — the
// recall-over-precision half of NER that some engine profiles enable.
// Stopwords break a run, and a single sentence-initial capitalized word
// is skipped as ordinary sentence case. covered must be sorted by Start
// and non-overlapping (the matcher's output order), which lets a
// two-pointer sweep test coverage.
func (d *doc) heuristicMentions(text string, covered []Mention) []Mention {
	spans := d.spans
	mi := 0
	coveredAt := func(off int32) bool {
		for mi < len(covered) && int32(covered[mi].End) <= off {
			mi++
		}
		return mi < len(covered) && int32(covered[mi].Start) <= off
	}
	eligible := func(sp span) bool {
		return sp.flags&fCapital != 0 && sp.flags&fStop == 0 && !coveredAt(sp.start)
	}
	var out []Mention
	for i := 0; i < len(spans); {
		if !eligible(spans[i]) {
			i++
			continue
		}
		j := i
		for j < len(spans) && eligible(spans[j]) {
			j++
		}
		// A single sentence-initial capitalized word is ordinary sentence
		// case, not evidence of an entity.
		if j-i == 1 && spans[i].flags&fSentStart != 0 {
			i = j
			continue
		}
		start, end := int(spans[i].start), int(spans[j-1].end)
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

// kwPair is the compact sort element for keyword ranking.
type kwPair struct {
	id    uint32
	count int32
}

// keywords returns the top-k keywords by score: term frequency damped by
// log-length, so long documents don't drown short ones, over the tokens
// flagged fKeyword (no stopwords, short tokens or numbers); ties break
// alphabetically. Counts accumulate into the ID-indexed scratch slice
// (sparse-reset on release). The comparator is a strict total order
// (texts are unique), so the output is identical regardless of
// accumulation order. k must be positive.
func (d *doc) keywords(v *vocabTables, k int) []Keyword {
	need := int(d.nVocab+d.nExtra) + d.local.Len()
	if need > len(d.counts) {
		d.counts = append(d.counts, make([]int32, need-len(d.counts))...)
	}
	total := 0
	for _, sp := range d.spans {
		if sp.flags&fKeyword == 0 {
			continue
		}
		if d.counts[sp.id] == 0 {
			d.touched = append(d.touched, sp.id)
		}
		d.counts[sp.id]++
		total++
	}
	if total == 0 {
		return nil
	}
	norm := math.Log(float64(total) + math.E)
	kws := d.kws[:0]
	for _, id := range d.touched {
		kws = append(kws, kwPair{id: id, count: d.counts[id]})
	}
	// Sort compact (id, count) pairs instead of the 32-byte output
	// structs; equal scores are exactly equal counts (same norm), so
	// ordering by count then interned text reproduces the reference's
	// (score desc, text asc). Unstable generic sort, but the comparator
	// is a strict total order (IDs, hence texts, are unique), so the
	// result is the unique sorted permutation — identical to the
	// reference regardless of sort algorithm.
	slices.SortFunc(kws, func(a, b kwPair) int {
		if a.count != b.count {
			return int(b.count) - int(a.count)
		}
		return strings.Compare(d.value(v, a.id), d.value(v, b.id))
	})
	d.kws = kws
	if len(kws) > k {
		kws = kws[:k]
	}
	out := make([]Keyword, len(kws))
	for i, p := range kws {
		out[i] = Keyword{Text: d.value(v, p.id), Count: int(p.count), Score: float64(p.count) / norm}
	}
	return out
}

// sentimentHit is one sentiment-bearing token with its resolved weight
// after negation and intensification.
type sentimentHit struct {
	tokenIndex int
	weight     float64
}

// scanSentiment fills d.hits with the sentiment-bearing tokens, applying
// negation ("not good" flips) and intensification ("very good"
// amplifies) from the two preceding tokens; weights and flags come from
// the ID-indexed vocabulary tables.
func (d *doc) scanSentiment(v *vocabTables) {
	d.hits = d.hits[:0]
	for i, sp := range d.spans {
		if sp.id >= d.nVocab {
			continue
		}
		w := v.weight[sp.id]
		if w == 0 {
			continue
		}
		factor := 1.0
		for back := 1; back <= 2 && i-back >= 0; back++ {
			pid := d.spans[i-back].id
			if pid >= d.nVocab {
				continue
			}
			if v.negator[pid] {
				factor = -factor
			} else if v.intensifier[pid] {
				factor *= 1.5
			}
		}
		d.hits = append(d.hits, sentimentHit{tokenIndex: i, weight: w * factor})
	}
}

// entitySentimentWindow is how many tokens on each side of a mention
// contribute to that entity's sentiment.
const entitySentimentWindow = 8

// entitySentiments scores each mentioned entity from the hits of
// scanSentiment within entitySentimentWindow tokens of its mentions — the
// paper's per-entity sentiment rather than one score for a document that
// "may describe several different entities". Sums accumulate in small
// parallel slices, mention by mention and hit by hit, the order nluref
// adds them in, so the floats are bit-identical to it.
func (d *doc) entitySentiments(mentions []Mention) []EntitySentiment {
	if len(mentions) == 0 {
		return nil
	}
	for _, m := range mentions {
		idx := -1
		for x, id := range d.entIDs {
			if id == m.EntityID {
				idx = x
				break
			}
		}
		if idx < 0 {
			d.entIDs = append(d.entIDs, m.EntityID)
			d.entSum = append(d.entSum, 0)
			d.entN = append(d.entN, 0)
			idx = len(d.entIDs) - 1
		}
		d.entN[idx]++
		center := d.tokenAt(int32(m.Start))
		lo, hi := center-entitySentimentWindow, center+entitySentimentWindow
		for _, h := range d.hits {
			if h.tokenIndex >= lo && h.tokenIndex <= hi {
				d.entSum[idx] += h.weight
			}
		}
	}
	out := make([]EntitySentiment, 0, len(d.entIDs))
	for x, id := range d.entIDs {
		out = append(out, EntitySentiment{
			EntityID: id,
			Score:    math.Tanh(d.entSum[x] / (2 * float64(d.entN[x]))),
			Mentions: d.entN[x],
		})
	}
	return out
}

// concepts derives the top-k taxonomy labels from the document's topic
// words and its mentions' kinds, with confidence proportional to the
// label's votes; ties break alphabetically. Votes accumulate into a
// dense label-indexed slice (the label space is the small fixed
// taxonomy). k must be positive.
func (d *doc) concepts(v *vocabTables, mentions []Mention, k int) []Concept {
	if len(d.votes) < len(v.conceptLabels) {
		d.votes = make([]int32, len(v.conceptLabels))
	}
	votes := d.votes[:len(v.conceptLabels)]
	for i := range votes {
		votes[i] = 0
	}
	n := 0
	for _, sp := range d.spans {
		if sp.id >= d.nVocab {
			continue
		}
		if t := v.topicOf[sp.id]; t != 0 {
			if votes[t-1] == 0 {
				n++
			}
			votes[t-1]++
		}
	}
	for _, m := range mentions {
		if t := v.kindOf[m.Kind]; t != 0 {
			if votes[t-1] == 0 {
				n++
			}
			votes[t-1]++
		}
	}
	if n == 0 {
		return nil
	}
	maxVotes := int32(0)
	for _, c := range votes {
		if c > maxVotes {
			maxVotes = c
		}
	}
	out := make([]Concept, 0, n)
	for x, c := range votes {
		if c == 0 {
			continue
		}
		out = append(out, Concept{Label: v.conceptLabels[x], Confidence: float64(c) / float64(maxVotes)})
	}
	// Labels are unique, so this comparator is a strict total order and
	// the unstable sort is deterministic.
	slices.SortFunc(out, func(a, b Concept) int {
		if a.Confidence != b.Confidence {
			if a.Confidence > b.Confidence {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Label, b.Label)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// relations extracts a relation for each pair of mentions of different
// entities in one sentence, at most maxTriggerDistance tokens apart,
// with a trigger word between them: the first trigger names the
// predicate, the mention earlier in the text is the subject, and
// confidence decays with the distance. Sentence IDs come from the span
// flags, mention positions from binary search, and triggers from a
// vocabulary-indexed predicate table. Spurious mentions can exist in a
// text without a single word token; such a text has no relations.
func (d *doc) relations(v *vocabTables, text string, mentions []Mention) []Relation {
	if len(mentions) < 2 || len(d.spans) == 0 {
		return nil
	}
	spans := d.spans
	d.sentence = d.sentence[:0]
	sid := int32(0)
	for i, sp := range spans {
		if sp.flags&fSentStart != 0 && i > 0 {
			sid++
		}
		d.sentence = append(d.sentence, sid)
	}
	var out []Relation
	for i := 0; i < len(mentions); i++ {
		for j := i + 1; j < len(mentions); j++ {
			a, b := mentions[i], mentions[j]
			if a.EntityID == b.EntityID {
				continue
			}
			ta, tb := d.tokenAt(int32(a.Start)), d.tokenAt(int32(b.Start))
			if d.sentence[ta] != d.sentence[tb] {
				continue
			}
			lo, hi := ta, tb
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi-lo > maxTriggerDistance {
				continue
			}
			for k := lo + 1; k < hi; k++ {
				id := spans[k].id
				if id >= d.nVocab {
					continue
				}
				t := v.triggerOf[id]
				if t == 0 {
					continue
				}
				distance := hi - lo
				conf := 1 - float64(distance-1)/float64(maxTriggerDistance+4)
				if conf < 0.1 {
					conf = 0.1
				}
				subj, obj := a, b
				if ta > tb {
					subj, obj = b, a
				}
				out = append(out, Relation{
					SubjectID:  subj.EntityID,
					Predicate:  v.predicates[t-1],
					ObjectID:   obj.EntityID,
					Trigger:    text[spans[k].start:spans[k].end],
					Confidence: conf,
				})
				break // one relation per mention pair
			}
		}
	}
	// Deliberately sort.Slice, not slices.SortFunc: the key
	// (subject, predicate, object) is NOT unique — two mentions of the
	// same entity pair tie while differing in Trigger — so the output
	// order of ties depends on the sort algorithm, which must stay
	// byte-for-byte the reference's.
	sort.Slice(out, func(x, y int) bool {
		if out[x].SubjectID != out[y].SubjectID {
			return out[x].SubjectID < out[y].SubjectID
		}
		if out[x].Predicate != out[y].Predicate {
			return out[x].Predicate < out[y].Predicate
		}
		return out[x].ObjectID < out[y].ObjectID
	})
	return out
}
