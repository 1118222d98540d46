package nlu

import (
	"sort"
	"sync"

	"repro/internal/intern"
	"repro/internal/lexicon"
)

// The engines share one process-wide frozen vocabulary: every word the
// lexicons, gazetteer, topic taxonomy, or relation triggers know about,
// interned once through intern.Dict and then frozen. Per-document work
// resolves each token to a vocabulary ID with a zero-allocation byte
// lookup and consults dense ID-indexed side tables instead of per-call
// string maps: stopwordness, sentiment weight, negator/intensifier
// flags, topic-concept labels, and relation-trigger predicates.
//
// Tokens outside the vocabulary still get IDs — first from the matcher's
// per-gazetteer overflow table, then from a per-document local dict (see
// doc.go) — so matching and counting stay pure integer comparisons for
// every token, known or not.
type vocabTables struct {
	dict *intern.Frozen[string]
	// stop, weight, negator, and intensifier are indexed by vocabulary ID.
	stop        []bool
	weight      []float64
	negator     []bool
	intensifier []bool
	// topicOf and triggerOf are indexed by vocabulary ID; 0 means "none",
	// otherwise 1+index into conceptLabels / predicates.
	topicOf   []uint16
	triggerOf []uint16
	// conceptLabels are the distinct taxonomy labels, sorted; kindOf maps
	// a mention Kind to 1+index into conceptLabels (0 = none).
	conceptLabels []string
	kindOf        map[string]uint16
	// predicates are the distinct relation predicates, sorted.
	predicates []string
	// answers holds every string an engine can emit from fixed data:
	// vocabulary words, gazetteer IDs and surfaces, mention kinds,
	// concept labels, predicates, and the stock engine and language
	// names. DecodeAnalysis resolves decoded strings against it.
	answers *intern.Frozen[string]
}

var (
	vocabOnce sync.Once
	vocabTab  *vocabTables
)

// vocab returns the shared tables, building them on first use from
// relationTriggers, topicConcepts, kindConcepts and the lexicon.
func vocab() *vocabTables {
	vocabOnce.Do(buildVocab)
	return vocabTab
}

func buildVocab() {
	d := intern.NewDict[string]()
	// Dictionary() is sorted and already contains the stopword, sentiment,
	// and gazetteer-surface vocabularies. The taxonomy and trigger tables
	// are nlu's own and may hold words the lexicon does not ("acquired").
	for _, w := range lexicon.Dictionary() {
		d.Intern(w)
	}
	for _, w := range sortedKeys(topicConcepts) {
		d.Intern(w)
	}
	for _, w := range sortedKeys(relationTriggers) {
		d.Intern(w)
	}
	f := d.Freeze()
	n := f.Len()
	v := &vocabTables{
		dict:        f,
		stop:        make([]bool, n),
		weight:      make([]float64, n),
		negator:     make([]bool, n),
		intensifier: make([]bool, n),
		topicOf:     make([]uint16, n),
		triggerOf:   make([]uint16, n),
	}
	for _, w := range lexicon.Stopwords {
		if id, ok := f.Lookup(w); ok {
			v.stop[id] = true
		}
	}
	for w, wt := range lexicon.SentimentWeights() {
		if id, ok := f.Lookup(w); ok {
			v.weight[id] = wt
		}
	}
	for _, w := range lexicon.Negators {
		if id, ok := f.Lookup(w); ok {
			v.negator[id] = true
		}
	}
	for _, w := range lexicon.Intensifiers {
		if id, ok := f.Lookup(w); ok {
			v.intensifier[id] = true
		}
	}

	labelSet := make(map[string]bool)
	for _, l := range topicConcepts {
		labelSet[l] = true
	}
	for _, l := range kindConcepts {
		labelSet[l] = true
	}
	v.conceptLabels = sortedKeys(labelSet)
	labelIdx := make(map[string]uint16, len(v.conceptLabels))
	for i, l := range v.conceptLabels {
		labelIdx[l] = uint16(i + 1)
	}
	for w, l := range topicConcepts {
		if id, ok := f.Lookup(w); ok {
			v.topicOf[id] = labelIdx[l]
		}
	}
	v.kindOf = make(map[string]uint16, len(kindConcepts))
	for k, l := range kindConcepts {
		v.kindOf[k] = labelIdx[l]
	}

	predSet := make(map[string]bool)
	for _, p := range relationTriggers {
		predSet[p] = true
	}
	v.predicates = sortedKeys(predSet)
	predIdx := make(map[string]uint16, len(v.predicates))
	for i, p := range v.predicates {
		predIdx[p] = uint16(i + 1)
	}
	for w, p := range relationTriggers {
		if id, ok := f.Lookup(w); ok {
			v.triggerOf[id] = predIdx[p]
		}
	}
	v.answers = buildAnswers(v)
	vocabTab = v
}

func buildAnswers(v *vocabTables) *intern.Frozen[string] {
	a := intern.NewDict[string]()
	for id := 0; id < v.dict.Len(); id++ {
		a.Intern(v.dict.Value(uint32(id)))
	}
	for _, e := range lexicon.AllEntities() {
		a.Intern(e.ID)
		a.Intern(e.Kind.String())
		for _, s := range e.Surface() {
			a.Intern(s)
		}
	}
	for _, s := range v.conceptLabels {
		a.Intern(s)
	}
	for _, s := range v.predicates {
		a.Intern(s)
	}
	for _, p := range []Profile{ProfileAlpha, ProfileBeta, ProfileGamma} {
		a.Intern(p.Name)
	}
	a.Intern("Unknown")
	a.Intern("en")
	return a.Freeze()
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// vocabulary IDs and table layouts.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
