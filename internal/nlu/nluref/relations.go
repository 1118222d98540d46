package nluref

import (
	"sort"
	"strings"
)

// Relationship extraction (paper §2.1: documents may be analyzed "for named
// entity recognition or relationship extraction", and outputs from several
// such services can be combined). A relation is extracted when two entity
// mentions share a sentence and a trigger word between them names the
// relationship; confidence decays with the distance between the mentions.

// Relation is one extracted (subject, predicate, object) relationship.
type Relation struct {
	// SubjectID and ObjectID are entity IDs of the related mentions.
	SubjectID string `json:"subjectId"`
	// Predicate is the canonical relation name ("kb:acquired").
	Predicate string `json:"predicate"`
	ObjectID  string `json:"objectId"`
	// Trigger is the surface word that signaled the relation.
	Trigger string `json:"trigger"`
	// Confidence in (0, 1]: closer mentions score higher.
	Confidence float64 `json:"confidence"`
}

// RelationTriggers maps trigger words to canonical predicates. The
// vocabulary matches the corpus generator's templates plus common business
// relations, and users may extend it per engine.
var RelationTriggers = map[string]string{
	"acquired":   "kb:acquired",
	"acquires":   "kb:acquired",
	"bought":     "kb:acquired",
	"merged":     "kb:mergedWith",
	"praised":    "kb:praised",
	"condemned":  "kb:condemned",
	"criticized": "kb:condemned",
	"blamed":     "kb:condemned",
	"welcomed":   "kb:welcomed",
	"sued":       "kb:sued",
	"partnered":  "kb:partneredWith",
	"supplies":   "kb:supplies",
	"employs":    "kb:employs",
	"visited":    "kb:visited",
	"signed":     "kb:signedWith",
	"invested":   "kb:investedIn",
}

// maxTriggerDistance bounds how many tokens may separate the mentions for
// a relation to be emitted.
const maxTriggerDistance = 12

// ExtractRelations finds trigger-mediated relations between entity mention
// pairs within a sentence. triggers may be nil to use RelationTriggers.
// Results are sorted by text order then predicate, deterministic for a
// given input. A text without tokens has no relations, though spurious
// mentions may still be fabricated from its punctuation.
func ExtractRelations(text string, tokens []Token, mentions []Mention, triggers map[string]string) []Relation {
	if triggers == nil {
		triggers = RelationTriggers
	}
	if len(mentions) < 2 || len(tokens) == 0 {
		return nil
	}
	// Token index of each mention start and the sentence id per token.
	sentenceOf := make([]int, len(tokens))
	sid := 0
	for i, t := range tokens {
		if t.SentenceStart && i > 0 {
			sid++
		}
		sentenceOf[i] = sid
	}
	tokenAt := func(byteOff int) int {
		for i, t := range tokens {
			if t.Start <= byteOff && byteOff < t.End {
				return i
			}
			if t.Start > byteOff {
				return i
			}
		}
		return len(tokens) - 1
	}
	var out []Relation
	for i := 0; i < len(mentions); i++ {
		for j := i + 1; j < len(mentions); j++ {
			a, b := mentions[i], mentions[j]
			if a.EntityID == b.EntityID {
				continue
			}
			ta, tb := tokenAt(a.Start), tokenAt(b.Start)
			if sentenceOf[ta] != sentenceOf[tb] {
				continue
			}
			lo, hi := ta, tb
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi-lo > maxTriggerDistance {
				continue
			}
			// Scan the span between the mentions for a trigger.
			for k := lo + 1; k < hi; k++ {
				pred, ok := triggers[tokens[k].Lower]
				if !ok {
					continue
				}
				distance := hi - lo
				conf := 1 - float64(distance-1)/float64(maxTriggerDistance+4)
				if conf < 0.1 {
					conf = 0.1
				}
				// Direction: textual order (subject before object).
				subj, obj := a, b
				if ta > tb {
					subj, obj = b, a
				}
				out = append(out, Relation{
					SubjectID:  subj.EntityID,
					Predicate:  pred,
					ObjectID:   obj.EntityID,
					Trigger:    tokens[k].Text,
					Confidence: conf,
				})
				break // one relation per mention pair
			}
		}
	}
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

// RelationKey renders a relation as "subject predicate object" for
// cross-service comparison and deduplication.
func RelationKey(r Relation) string {
	return strings.Join([]string{r.SubjectID, r.Predicate, r.ObjectID}, " ")
}
